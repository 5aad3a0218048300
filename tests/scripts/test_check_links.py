"""Unit tests for the markdown link checks behind the ``docs-links`` rule.

The checks gate the CI lint job, so they need their own tests: a checker
that silently passes broken anchors (or flags valid ones) corrupts the
whole docs-stay-honest discipline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import mdlinks


def write(tmp_path: Path, name: str, text: str) -> Path:
    p = tmp_path / name
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")
    return p


class TestSlugs:
    @pytest.mark.parametrize(
        "heading,slug",
        [
            ("Plain Heading", "plain-heading"),
            ("With `code` bits", "with-code-bits"),
            ("Punctuation, (dropped)!", "punctuation-dropped"),
            ("[linked](target.md) heading", "linked-heading"),
            ("Hyphen-ated words", "hyphen-ated-words"),
        ],
    )
    def test_github_slug(self, heading, slug):
        assert mdlinks.github_slug(heading) == slug

    def test_duplicate_headings_get_suffixes(self, tmp_path):
        page = write(
            tmp_path, "page.md", "# Setup\ntext\n## Setup\nmore\n## Setup\n"
        )
        assert {"setup", "setup-1", "setup-2"} <= mdlinks.anchor_slugs(page)

    def test_html_anchors_count(self, tmp_path):
        page = write(tmp_path, "page.md", '<a id="pinned"></a>\n<a name="legacy">\n')
        assert {"pinned", "legacy"} <= mdlinks.anchor_slugs(page)

    def test_headings_in_code_blocks_ignored(self, tmp_path):
        page = write(tmp_path, "page.md", "```\n# not a heading\n```\n# Real\n")
        slugs = mdlinks.anchor_slugs(page)
        assert "real" in slugs and "not-a-heading" not in slugs


class TestCheckFile:
    def test_valid_relative_link_and_anchor(self, tmp_path):
        write(tmp_path, "other.md", "# Target Section\n")
        page = write(
            tmp_path, "page.md", "[ok](other.md) and [ok](other.md#target-section)\n"
        )
        assert mdlinks.check_file_errors(page) == []

    def test_broken_file_target(self, tmp_path):
        page = write(tmp_path, "page.md", "[nope](missing.md)\n")
        errors = mdlinks.check_file_errors(page)
        assert len(errors) == 1 and "missing.md" in errors[0][1]

    def test_broken_anchor(self, tmp_path):
        write(tmp_path, "other.md", "# Only Section\n")
        page = write(tmp_path, "page.md", "[nope](other.md#absent)\n")
        errors = mdlinks.check_file_errors(page)
        assert len(errors) == 1 and "#absent" in errors[0][1]

    def test_same_file_fragment(self, tmp_path):
        page = write(tmp_path, "page.md", "# Intro\n[up](#intro) [bad](#outro)\n")
        errors = mdlinks.check_file_errors(page)
        assert len(errors) == 1 and "#outro" in errors[0][1]

    def test_duplicate_heading_anchor_resolves(self, tmp_path):
        write(tmp_path, "other.md", "## Round\n## Round\n")
        page = write(tmp_path, "page.md", "[second](other.md#round-1)\n")
        assert mdlinks.check_file_errors(page) == []

    def test_external_urls_not_fetched(self, tmp_path):
        page = write(
            tmp_path, "page.md", "[x](https://example.invalid/nope) [y](mailto:a@b)\n"
        )
        assert mdlinks.check_file_errors(page) == []

    def test_links_in_code_ignored(self, tmp_path):
        page = write(
            tmp_path,
            "page.md",
            "```\n[no](missing.md)\n```\ninline `[no](missing.md)` code\n",
        )
        assert mdlinks.check_file_errors(page) == []

    def test_reference_definitions_checked(self, tmp_path):
        write(tmp_path, "real.md", "# Here\n")
        page = write(
            tmp_path,
            "page.md",
            "See [the page][good] and [more][bad].\n\n"
            "[good]: real.md#here\n[bad]: gone.md\n",
        )
        errors = mdlinks.check_file_errors(page)
        assert len(errors) == 1 and "gone.md" in errors[0][1]

    def test_undefined_reference_flagged(self, tmp_path):
        page = write(tmp_path, "page.md", "A [dangling][nowhere] reference.\n")
        errors = mdlinks.check_file_errors(page)
        assert len(errors) == 1 and "nowhere" in errors[0][1]

    def test_collapsed_reference_uses_text_as_label(self, tmp_path):
        page = write(tmp_path, "page.md", "[Spec][] here.\n\n[spec]: page.md\n")
        assert mdlinks.check_file_errors(page) == []

    def test_indexing_prose_is_not_a_reference(self, tmp_path):
        page = write(tmp_path, "page.md", "use `arr[i][0]` to index\n")
        assert mdlinks.check_file_errors(page) == []


class TestReferencedDocs:
    """Top-page mentions of docs/ files must exist even outside link syntax."""

    def test_prose_mention_of_missing_page_flagged(self, tmp_path):
        write(tmp_path, "README.md", "the catalogue is `docs/phantom.md`\n")
        errors = mdlinks.referenced_docs_errors(tmp_path)
        assert len(errors) == 1
        page, lineno, msg = errors[0]
        assert page.name == "README.md" and lineno == 1
        assert "docs/phantom.md" in msg

    def test_existing_mentions_pass(self, tmp_path):
        write(tmp_path, "ROADMAP.md", "see docs/real.md for details\n")
        write(tmp_path, "docs/real.md", "# Real\n")
        assert mdlinks.referenced_docs_errors(tmp_path) == []

    def test_absent_top_pages_are_skipped(self, tmp_path):
        assert mdlinks.referenced_docs_errors(tmp_path) == []

    def test_non_top_pages_are_not_scanned(self, tmp_path):
        write(tmp_path, "docs/inner.md", "mentions docs/phantom.md freely\n")
        assert mdlinks.referenced_docs_errors(tmp_path) == []


class TestMain:
    def test_repo_docs_pass_with_anchors(self):
        """The real tree must stay clean under the extended checker."""
        repo = Path(__file__).resolve().parents[2]
        files = [repo / "README.md", *sorted((repo / "docs").rglob("*.md"))]
        errors = []
        for f in files:
            errors.extend(mdlinks.check_file_errors(f))
        assert errors == []
