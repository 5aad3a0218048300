"""Shared helpers for the repro-lint test suite.

Rules are exercised on *fixture snippets* — inline source strings given a
synthetic repo-relative path (path-gated rules care) — so each test reads
as: this code, at this path, does/does not fire this rule.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.analysis  # noqa: F401  (registers the rule pack)
from repro.analysis.core import Finding, LintContext, ModuleSource
from repro.analysis.runner import build_rules


def _lint_snippet(
    code: str,
    rule: str | None,
    rel: str = "src/repro/simulator/snippet.py",
    root: Path | None = None,
) -> list[Finding]:
    """Run one rule (None: the whole pack) over an inline snippet.

    File-scope rules see the snippet as a module; repo-scope rules see it
    as the whole linted tree (a one-module :class:`ProjectIndex`).
    """
    module = ModuleSource(Path("/fixture") / rel, rel, text=code)
    ctx = LintContext(root=root or Path("/fixture"), modules=[module])
    findings: list[Finding] = []
    for lint_rule in build_rules(None if rule is None else [rule]):
        if lint_rule.scope == "repo":
            findings.extend(lint_rule.check_repo(ctx))
        else:
            findings.extend(lint_rule.check(module, ctx))
    return findings


@pytest.fixture
def lint_snippet():
    """The snippet runner as a fixture (tests/ has no package imports)."""
    return _lint_snippet


@pytest.fixture(scope="session")
def repo_root():
    """The real repository root (tests/analysis/ is two levels down)."""
    return Path(__file__).resolve().parent.parent.parent


@pytest.fixture
def make_repo(tmp_path):
    """Factory for a minimal on-disk repo tree (repo-scope rules read docs).

    ``make_repo({"src/repro/x.py": "...", "docs/registry.md": "..."})``
    returns the root; missing parents are created.
    """

    def _make(files: dict[str, str]) -> Path:
        for rel, text in files.items():
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")
        return tmp_path

    return _make
