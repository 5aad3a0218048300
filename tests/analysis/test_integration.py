"""repro-lint runs clean over the repository at HEAD.

This is the acceptance gate the CI ``lint-invariants`` job re-runs from
the command line: the shipped tree (``src`` + ``examples``) must produce
zero findings with the full rule pack — every contract the rules encode
is *actually upheld*, not merely checkable.  If a change legitimately
needs an exception, it goes through a suppression comment or the
baseline workflow (see docs/analysis.md), not through weakening a rule.
"""

from __future__ import annotations

from repro.analysis.runner import build_rules, run_lint
from repro.registry import names


def test_rule_pack_is_exactly_the_twelve_rules():
    assert set(names("lint")) == {
        "dead-component",
        "docs-links",
        "golden-freeze",
        "hook-conformance",
        "no-set-iteration",
        "no-wallclock",
        "pool-discipline",
        "registry-call-discipline",
        "registry-docs",
        "rng-taint",
        "scenario-schema-docs",
        "worker-purity",
    }


def test_whole_program_rules_are_registered():
    pack = names("lint")
    for rule in ("rng-taint", "worker-purity", "hook-conformance", "dead-component"):
        assert rule in pack


def test_every_rule_has_name_scope_and_description():
    for rule in build_rules():
        assert rule.name in names("lint")
        assert rule.scope in ("file", "repo")
        assert len(rule.description) > 20


def test_repo_lints_clean_at_head(repo_root):
    baseline = repo_root / "lint-baseline.json"
    report = run_lint(
        [repo_root / "src", repo_root / "examples"],
        root=repo_root,
        baseline_path=baseline if baseline.exists() else None,
    )
    assert report.findings == [], "\n" + "\n".join(
        f.format() for f in report.findings
    )
    assert report.files > 50  # the whole shipped tree, not a subset


def test_docs_and_tests_also_lint_clean(repo_root):
    # Wider than the CI gate: the golden-freeze and docs rules must hold
    # over tests/ too (tests may import the reference, but their markdown
    # and registry uses still have to resolve).
    report = run_lint(
        [repo_root / "src", repo_root / "examples", repo_root / "tests"],
        root=repo_root,
        baseline_path=None,
    )
    assert report.findings == [], "\n" + "\n".join(
        f.format() for f in report.findings
    )
