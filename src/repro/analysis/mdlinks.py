"""Markdown link checking (stdlib only; no repro imports).

The engine behind the ``docs-links`` lint rule
(:mod:`repro.analysis.rules.docs_links`), which runs it from the one
``repro-lint`` entry point.  Checks, per markdown file:

* inline links ``[text](target)`` and reference definitions
  ``[label]: target`` — relative file targets must exist (resolved against
  the linking file);
* reference-style uses ``[text][label]`` / ``[text][]`` — the label must
  be defined in the same file;
* ``#anchor`` fragments — standalone or on a relative ``.md`` target —
  must match an anchor in the target file: a GitHub-style heading slug
  (including the ``-1``, ``-2`` suffixes GitHub appends to duplicate
  headings) or an explicit ``<a id="...">`` / ``<a name="...">`` anchor;
* absolute URLs (http/https/mailto) are *not* fetched: external liveness
  is not this checker's job, and CI must not flake on the network.

Links inside fenced code blocks and inline code spans are ignored.

On top of per-file link resolution, :func:`referenced_docs_errors` verifies
that every ``docs/*.md`` page *mentioned* in the repo's top-level pages
(``README.md``, ``ISSUE.md``, ``ROADMAP.md``) exists — mentions in prose
and inline code count too, which plain link checking cannot see.
"""

from __future__ import annotations

import re
from pathlib import Path

_FENCE = re.compile(r"^(```|~~~)")
#: Inline links: [text](target) — target captured up to the matching paren.
_LINK = re.compile(r"\[[^\]\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Reference-style uses: [text][label] ([text][] collapses onto the text).
_REF_USE = re.compile(r"\[([^\]\[]+)\]\[([^\]\[]*)\]")
#: Reference definitions: [label]: target (up to 3 leading spaces, per spec).
_REF_DEF = re.compile(r"^ {0,3}\[([^\]\[]+)\]:\s*(\S+)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")
#: Explicit HTML anchors authors drop for stable deep links.
_HTML_ANCHOR = re.compile(r"<a\s+(?:id|name)\s*=\s*[\"']([^\"']+)[\"']", re.IGNORECASE)
#: Inline code spans (non-greedy; backtick runs of any length).
_CODE_SPAN = re.compile(r"`+[^`]*`+")
#: docs-page mentions anywhere in the text (prose, inline code, links).
_DOCS_MENTION = re.compile(r"docs/[\w\-./]+\.md")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: Top-level pages whose ``docs/`` mentions must resolve (see
#: :func:`referenced_docs_errors`).
TOP_PAGES = ("README.md", "ISSUE.md", "ROADMAP.md")


def strip_code_blocks(text: str) -> list[str]:
    """The file's lines with fenced code blocks blanked out."""
    out, in_fence = [], False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return out


def _strip_code_spans(line: str) -> str:
    """Blank out inline code spans (``arr[i][0]`` must not look like a link)."""
    return _CODE_SPAN.sub(lambda m: " " * len(m.group(0)), line)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for one heading occurrence (no duplicate suffix)."""
    # Drop inline code/links markup, then non-word punctuation.
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    heading = heading.replace("`", "").strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def anchor_slugs(path: Path) -> set[str]:
    """Every anchor a fragment may target in one file.

    Heading slugs carry GitHub's duplicate-disambiguation suffixes (the
    second ``## Setup`` is ``#setup-1``), and explicit ``<a id>`` /
    ``<a name>`` anchors count too.
    """
    slugs: set[str] = set()
    seen: dict[str, int] = {}
    for line in strip_code_blocks(path.read_text(encoding="utf-8")):
        m = _HEADING.match(line)
        if m:
            slug = github_slug(m.group(2))
            n = seen.get(slug, 0)
            seen[slug] = n + 1
            slugs.add(slug if n == 0 else f"{slug}-{n}")
        for anchor in _HTML_ANCHOR.finditer(line):
            slugs.add(anchor.group(1))
    return slugs


def _iter_clean_lines(path: Path):
    for i, line in enumerate(strip_code_blocks(path.read_text(encoding="utf-8")), 1):
        yield i, _strip_code_spans(line)


def check_file_errors(path: Path) -> list[tuple[int, str]]:
    """Broken links in one file, as ``(lineno, message)`` pairs."""
    errors: list[tuple[int, str]] = []

    def check_target(lineno: int, target: str) -> None:
        if target.startswith(_EXTERNAL):
            return
        base, _, fragment = target.partition("#")
        dest = path if not base else (path.parent / base).resolve()
        if not dest.exists():
            errors.append((lineno, f"broken link target {target!r}"))
            return
        if fragment and dest.suffix == ".md":
            if github_slug(fragment) not in anchor_slugs(dest):
                errors.append((lineno, f"anchor #{fragment} not found in {dest.name}"))

    # Reference definitions: collect the label table, check each target.
    definitions: dict[str, int] = {}
    for lineno, line in _iter_clean_lines(path):
        m = _REF_DEF.match(line)
        if m and not m.group(1).startswith("^"):  # footnotes are not links
            definitions[m.group(1).strip().lower()] = lineno
            check_target(lineno, m.group(2))

    for lineno, line in _iter_clean_lines(path):
        if _REF_DEF.match(line):
            continue
        for m in _LINK.finditer(line):
            check_target(lineno, m.group(1))
        for m in _REF_USE.finditer(line):
            label = (m.group(2) or m.group(1)).strip().lower()
            if label not in definitions:
                errors.append((lineno, f"undefined link reference [{label}]"))
    return errors


def referenced_docs_errors(root: Path) -> list[tuple[Path, int, str]]:
    """``docs/*.md`` mentions in the top-level pages that do not exist.

    Scans the *raw* text of :data:`TOP_PAGES` (mentions inside inline code
    and prose count — those never pass through the link checker), and
    resolves each ``docs/...md`` path against ``root``.  Returns
    ``(page, lineno, message)`` triples.
    """
    errors: list[tuple[Path, int, str]] = []
    for name in TOP_PAGES:
        page = root / name
        if not page.exists():
            continue
        for lineno, line in enumerate(page.read_text(encoding="utf-8").splitlines(), 1):
            for m in _DOCS_MENTION.finditer(line):
                if not (root / m.group(0)).exists():
                    errors.append(
                        (page, lineno, f"referenced docs page {m.group(0)!r} does not exist")
                    )
    return errors
