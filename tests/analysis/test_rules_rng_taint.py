"""Fixture tests for the whole-program ``rng-taint`` rule."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.baseline import write_baseline
from repro.analysis.runner import build_rules, run_lint


def _lint(root: Path, *, select=("rng-taint",), baseline=None, extra_paths=()):
    return run_lint(
        [root / "src", *[root / p for p in extra_paths]],
        root=root,
        select=list(select),
        baseline_path=baseline,
    )


class TestPositive:
    def test_cross_module_const_reseed_below_threaded_caller(self, make_repo):
        """The headline true positive: a seeded rng threaded into one module
        is silently replaced by a fixed stream in a helper two calls away.
        Every per-file rule passes this code, and ``default_rng(0)`` is a
        lexically sanctioned construction — only the call graph sees it."""
        root = make_repo(
            {
                "src/repro/simulator/run.py": (
                    "import numpy as np\n"
                    "from repro.simulator.noise import perturb\n"
                    "def run(events, rng: np.random.Generator):\n"
                    "    return [perturb(e) for e in events]\n"
                ),
                "src/repro/simulator/noise.py": (
                    "import numpy as np\n"
                    "def perturb(e):\n"
                    "    rng = np.random.default_rng(0)\n"
                    "    return e + rng.normal()\n"
                ),
            }
        )
        report = _lint(root)
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.rule == "rng-taint"
        assert f.path == "src/repro/simulator/noise.py"
        assert "perturb <- run" in f.message
        # No per-file rule sees anything wrong with either module.
        file_rules = [r.name for r in build_rules() if r.scope == "file"]
        per_file = run_lint([root / "src"], root=root, baseline_path=None,
                            select=file_rules)
        assert per_file.findings == []

    def test_reseed_inside_threaded_function(self, make_repo):
        root = make_repo(
            {
                "src/repro/failures/model.py": (
                    "import numpy as np\n"
                    "def events(horizon, rng):\n"
                    "    local = np.random.default_rng(7)\n"
                    "    return local.exponential(size=3)\n"
                )
            }
        )
        report = _lint(root)
        assert [f.rule for f in report.findings] == ["rng-taint"]
        assert "holds a threaded rng" in report.findings[0].message

    def test_module_level_generator_state(self, make_repo):
        """A seeded module-scope rng passes the lexical checks
        (``default_rng`` is on their allow-list); inside the taint paths it
        is still flagged as shared generator state."""
        root = make_repo(
            {
                "src/repro/scenario/state.py": (
                    "import numpy as np\nRNG = np.random.default_rng(42)\n"
                )
            }
        )
        report = _lint(root)
        assert [f.rule for f in report.findings] == ["rng-taint"]
        assert "module-level generator 'RNG'" in report.findings[0].message

    def test_unseeded_default_rng_subsumed_from_lexical_rule(self, make_repo):
        root = make_repo(
            {
                "src/repro/runtime/jitter.py": (
                    "import numpy as np\n"
                    "def backoff():\n"
                    "    return np.random.default_rng().uniform()\n"
                )
            }
        )
        report = _lint(root)
        # One finding, not one per check that recognises the call.
        assert [f.rule for f in report.findings] == ["rng-taint"]
        assert "unseeded" in report.findings[0].message

    def test_rng_as_parameter_default(self, make_repo):
        root = make_repo(
            {
                "src/repro/simulator/api.py": (
                    "import numpy as np\n"
                    "def sample(n, rng=np.random.default_rng(3)):\n"
                    "    return rng.uniform(size=n)\n"
                )
            }
        )
        report = _lint(root)
        assert any("parameter default" in f.message for f in report.findings)


class TestOneFindingPerNode:
    def test_seed_in_failure_model_is_one_finding_from_full_pack(self, lint_snippet):
        """``np.random.seed`` inside a registered failure model trips both
        the module-level-state check and the failure-model check; the
        whole pack reports it once."""
        code = (
            "import numpy as np\n"
            "from repro.registry import register\n"
            "@register('failure', 'reseeding')\n"
            "class Reseeding:\n"
            "    def events(self, n_servers, horizon, rng):\n"
            "        np.random.seed(1)\n"
            "        return []\n"
        )
        findings = lint_snippet(code, None, rel="src/repro/failures/snippet.py")
        on_seed_line = [f for f in findings if f.line == 6]
        assert [f.rule for f in on_seed_line] == ["rng-taint"]
        assert "failure model Reseeding touches np.random.seed" in on_seed_line[0].message

    def test_failure_model_checked_outside_taint_paths(self, lint_snippet):
        code = (
            "import numpy as np\n"
            "from repro.registry import register\n"
            "@register('failure', 'own-stream')\n"
            "class OwnStream:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = np.random.default_rng(seed)\n"
        )
        hits = lint_snippet(code, "rng-taint", rel="examples/plugin.py")
        assert len(hits) == 1 and "failure model OwnStream" in hits[0].message


class TestNegative:
    def test_threaded_discipline_is_clean(self, make_repo):
        root = make_repo(
            {
                "src/repro/simulator/good.py": (
                    "import numpy as np\n"
                    "def run(spec):\n"
                    "    rng = np.random.default_rng(spec['seed'])\n"
                    "    return step(rng)\n"
                    "def step(rng):\n"
                    "    return rng.normal()\n"
                )
            }
        )
        assert _lint(root).findings == []

    def test_const_seed_outside_covered_paths_not_flagged(self, make_repo):
        # Demo/example code outside repro/{simulator,failures,scenario,
        # runtime} is out of this rule's jurisdiction.
        root = make_repo(
            {
                "src/repro/traces/demo.py": (
                    "import numpy as np\n"
                    "def demo(rng):\n"
                    "    return np.random.default_rng(1).uniform()\n"
                )
            }
        )
        assert _lint(root).findings == []

    def test_unseeded_outside_covered_paths_still_lexically_caught(self, make_repo):
        # The unseeded check has no path carve-out.
        root = make_repo(
            {
                "src/repro/traces/demo.py": (
                    "import numpy as np\n"
                    "def demo():\n"
                    "    return np.random.default_rng().uniform()\n"
                )
            }
        )
        report = _lint(root)
        assert [f.rule for f in report.findings] == ["rng-taint"]


class TestSuppressionAndBaseline:
    _BAD = (
        "import numpy as np\n"
        "def events(horizon, rng):\n"
        "    local = np.random.default_rng(7)  {comment}\n"
        "    return local.exponential(size=3)\n"
    )

    def test_same_line_suppression(self, make_repo):
        root = make_repo(
            {
                "src/repro/failures/model.py": self._BAD.format(
                    comment="# repro-lint: disable=rng-taint"
                )
            }
        )
        report = _lint(root)
        assert report.findings == [] and report.suppressed == 1

    def test_baseline_grandfathers_finding(self, make_repo, tmp_path):
        root = make_repo({"src/repro/failures/model.py": self._BAD.format(comment="")})
        baseline = tmp_path / "baseline.json"
        first = _lint(root)
        write_baseline(baseline, first.findings, {})
        second = _lint(root, baseline=baseline)
        assert second.findings == []
        assert [f.rule for f in second.baselined] == ["rng-taint"]


@pytest.mark.parametrize("rule", ["rng-taint"])
def test_rule_is_registered(rule):
    from repro.registry import names

    assert rule in names("lint")
