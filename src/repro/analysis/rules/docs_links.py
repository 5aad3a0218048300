"""docs-links rule: the markdown tree resolves, from the one lint door.

Runs the :mod:`repro.analysis.mdlinks` checks inside ``repro-lint``:

* every relative link and anchor in ``README.md`` + ``docs/`` (plus
  ``ISSUE.md`` / ``ROADMAP.md`` when present) must resolve
  (:func:`repro.analysis.mdlinks.check_file_errors`);
* every ``docs/*.md`` page *mentioned* in the top-level pages — prose and
  inline code included, which plain link syntax checking cannot see —
  must exist (:func:`repro.analysis.mdlinks.referenced_docs_errors`).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import mdlinks
from repro.analysis.core import Finding, LintContext, LintRule
from repro.registry import register


def _rel(root: Path, path: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return str(path)


def _md_snippet(path: Path, lineno: int) -> str:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return ""
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


@register("lint", "docs-links")
class DocsLinksRule(LintRule):
    """Markdown links, anchors, and referenced docs pages all resolve."""

    name = "docs-links"
    scope = "repo"
    description = (
        "README.md + docs/ (and ISSUE.md/ROADMAP.md when present) must "
        "have no broken relative links or anchors, and every docs/*.md "
        "page mentioned from the top-level pages must exist"
    )

    def check_repo(self, ctx: LintContext):
        root = ctx.root
        targets = [root / name for name in mdlinks.TOP_PAGES if (root / name).exists()]
        docs_dir = root / "docs"
        if docs_dir.is_dir():
            targets.extend(sorted(docs_dir.rglob("*.md")))
        for path in targets:
            rel = _rel(root, path)
            for lineno, msg in mdlinks.check_file_errors(path):
                yield Finding(
                    rule=self.name,
                    path=rel,
                    line=lineno,
                    message=msg,
                    snippet=_md_snippet(path, lineno),
                )
        for page, lineno, msg in mdlinks.referenced_docs_errors(root):
            yield Finding(
                rule=self.name,
                path=_rel(root, page),
                line=lineno,
                message=msg,
                snippet=_md_snippet(page, lineno),
            )
