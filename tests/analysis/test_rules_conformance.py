"""Fixture tests for the ``hook-conformance`` protocol checker."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.baseline import write_baseline
from repro.analysis.runner import run_lint

#: Minimal protocol bases at their canonical homes; the rule finds them
#: by class name with a module-prefix preference, exactly as in-tree.
_BASES = {
    "src/repro/simulator/components.py": (
        "class MetricsCollector:\n"
        "    def on_admit(self, t, vm):\n"
        "        pass\n"
        "    def on_preempt(self, t, vm):\n"
        "        pass\n"
        "    def merge_shards(self, shards):\n"
        "        pass\n"
        "    def finalize(self):\n"
        "        return {}\n"
    ),
    "src/repro/scenario/engine.py": (
        "class Engine:\n"
        "    def run(self, scenario):\n"
        "        raise NotImplementedError\n"
    ),
    "src/repro/failures/models.py": (
        "class FailureModel:\n"
        "    def events(self, n_servers, horizon, rng):\n"
        "        raise NotImplementedError\n"
    ),
}


#: Collector fixtures that exercise the hook checks opt out of the merge
#: and snapshot contracts, which TestOptOutContracts covers.
_OPTED_OUT = "    mergeable = False\n    snapshottable = False\n"


def _lint(root: Path, *, baseline=None):
    return run_lint(
        [root / "src"], root=root, select=["hook-conformance"], baseline_path=baseline
    )


def _repo(make_repo, component: str):
    return make_repo({**_BASES, "src/pkg/component.py": component})


class TestPositive:
    def test_misspelled_hook_is_reported(self, make_repo):
        """The true positive no per-file rule catches: ``merge_shard`` is a
        perfectly valid method name in isolation — only comparison against
        the ``MetricsCollector`` protocol (defined in another module)
        reveals it will never be dispatched."""
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('metrics', 'demo')\n"
            "class Demo:\n"
            + _OPTED_OUT
            + "    def merge_shard(self, shards):\n"
            "        pass\n",
        )
        report = _lint(root)
        assert len(report.findings) == 1
        assert "misspelling of protocol hook merge_shards()" in report.findings[0].message

    def test_unknown_on_hook_is_reported(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('metrics', 'demo')\n"
            "class Demo:\n"
            "    def on_vm_arrival(self, t, vm):\n"
            "        pass\n",
        )
        report = _lint(root)
        assert any("not a hook" in f.message for f in report.findings)

    def test_arity_mismatch_is_reported(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('metrics', 'demo')\n"
            "class Demo:\n"
            "    def on_admit(self, t, vm, extra):\n"
            "        pass\n",
        )
        report = _lint(root)
        assert any("will raise TypeError when dispatched" in f.message
                   for f in report.findings)

    def test_engine_without_run_is_reported(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('engine', 'demo')\n"
            "class DemoEngine:\n"
            "    def execute(self, scenario):\n"
            "        pass\n",
        )
        report = _lint(root)
        assert any("required method run()" in f.message for f in report.findings)

    def test_failure_model_without_events_is_reported(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('failure', 'demo')\n"
            "class DemoFailure:\n"
            "    def sample(self, n_servers, horizon, rng):\n"
            "        pass\n",
        )
        report = _lint(root)
        assert any("required method events()" in f.message for f in report.findings)


class TestNegative:
    def test_conforming_collector_is_clean(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('metrics', 'demo')\n"
            "class Demo:\n"
            "    def on_admit(self, t, vm):\n"
            "        pass\n"
            "    def merge_shards(self, shards):\n"
            "        pass\n"
            "    def snapshot(self):\n"
            "        return {}\n"
            "    def restore(self, state):\n"
            "        pass\n"
            "    def finalize(self):\n"
            "        return {'n': 0}\n",
        )
        assert _lint(root).findings == []

    def test_inherited_run_satisfies_engine_protocol(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "from repro.scenario.engine import Engine\n"
            "@register('engine', 'demo')\n"
            "class DemoEngine(Engine):\n"
            "    pass\n",
        )
        assert _lint(root).findings == []

    def test_extra_defaults_and_varargs_are_fine(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('metrics', 'demo')\n"
            "class Demo:\n"
            + _OPTED_OUT
            + "    def on_admit(self, t, vm, detail=None):\n"
            "        pass\n"
            "    def on_preempt(self, *args):\n"
            "        pass\n",
        )
        assert _lint(root).findings == []

    def test_private_helpers_and_other_kinds_ignored(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "@register('policy', 'demo')\n"
            "class Demo:\n"
            "    def on_anything(self):\n"
            "        pass\n"
            "@register('metrics', 'demo2')\n"
            "class Demo2:\n"
            + _OPTED_OUT
            + "    def _on_internal(self, t):\n"
            "        pass\n"
            "    def finalize(self):\n"
            "        return {}\n",
        )
        assert _lint(root).findings == []

    def test_partial_lint_without_base_is_silent(self, make_repo):
        # Base protocol class not in the linted tree: skip the hook checks,
        # don't guess (the opt-out contracts need no base and are still
        # checked; see test_rules_merge.py).
        root = make_repo(
            {
                "src/pkg/component.py": (
                    "from repro.registry import register\n"
                    "@register('metrics', 'demo')\n"
                    "class Demo:\n"
                    + _OPTED_OUT
                    + "    def merge_shard(self, shards):\n"
                    "        pass\n"
                )
            }
        )
        assert _lint(root).findings == []


class TestOptOutContracts:
    """merge_shards or ``mergeable = False``; snapshot + restore or
    ``snapshottable = False`` — from the class or a non-base ancestor."""

    _A = (
        "from repro.registry import register\n"
        "from repro.simulator.components import MetricsCollector\n"
        "@register('metrics', 'a')\n"
        "class A(MetricsCollector):\n"
        "    def merge_shards(self, shards):\n"
        "        pass\n"
        "    def snapshot(self):\n"
        "        return {}\n"
        "    def restore(self, state):\n"
        "        pass\n"
    )
    _B = (
        "from pkg.a import A\n"
        "from repro.registry import register\n"
        "@register('metrics', 'b')\n"
        "class B(A):\n"
        "    def on_admit(self, t, vm):\n"
        "        pass\n"
    )

    def test_inherited_protocol_methods_satisfy_contracts(self, make_repo):
        """B inherits a real merge_shards/snapshot/restore from A; the full
        pack must not flag it (the catalogue and a README mention keep the
        docs and liveness rules quiet)."""
        root = make_repo(
            {
                "src/pkg/a.py": self._A,
                "src/pkg/b.py": self._B,
                "docs/registry.md": "| `metrics` | `a`, `b` |\n",
                "README.md": "Collectors `a` and `b`.\n",
            }
        )
        assert run_lint([root / "src"], root=root).findings == []

    def test_inherited_opt_out_satisfies_contracts(self, make_repo):
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "class Unsharded:\n"
            + _OPTED_OUT
            + "@register('metrics', 'demo')\n"
            "class Demo(Unsharded):\n"
            "    def on_admit(self, t, vm):\n"
            "        pass\n",
        )
        assert _lint(root).findings == []

    def test_base_defaults_do_not_satisfy_contracts(self, make_repo):
        # The fixture base defines merge_shards, like the real base's
        # raising default: inheriting it proves nothing.
        root = _repo(
            make_repo,
            "from repro.registry import register\n"
            "from repro.simulator.components import MetricsCollector\n"
            "@register('metrics', 'demo')\n"
            "class Demo(MetricsCollector):\n"
            "    def on_admit(self, t, vm):\n"
            "        pass\n",
        )
        messages = [f.message for f in _lint(root).findings]
        assert len(messages) == 2
        assert "missing merge_shards and does not declare `mergeable = False`" in messages[0]
        assert "missing restore/snapshot and does not declare" in messages[1]


class TestSuppressionAndBaseline:
    _BAD = (
        "from repro.registry import register\n"
        "@register('metrics', 'demo')\n"
        "class Demo:\n"
        + _OPTED_OUT
        + "    def merge_shard(self, shards):  {comment}\n"
        "        pass\n"
    )

    def test_same_line_suppression(self, make_repo):
        root = _repo(
            make_repo,
            self._BAD.format(comment="# repro-lint: disable=hook-conformance"),
        )
        report = _lint(root)
        assert report.findings == [] and report.suppressed == 1

    def test_baseline_grandfathers_finding(self, make_repo, tmp_path):
        root = _repo(make_repo, self._BAD.format(comment=""))
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, _lint(root).findings, {})
        report = _lint(root, baseline=baseline)
        assert report.findings == []
        assert [f.rule for f in report.baselined] == ["hook-conformance"]
