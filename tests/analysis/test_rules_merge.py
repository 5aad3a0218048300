"""Fixture tests for the sharded-engine merge-discipline contracts.

The collector merge and snapshot contracts are checked by
``hook-conformance``, the failure-model rng contract by ``rng-taint``.
Each snippet is the whole linted tree, so the ``MetricsCollector`` base
is absent: the opt-out contracts must still be enforced without it.
``hook-conformance`` reports a missing ``merge_shards`` and a missing
``snapshot``/``restore`` pair as separate findings; each class below
selects the one contract it exercises.
"""

from __future__ import annotations

MOD = "src/repro/simulator/snippet.py"

_IMPORTS = "import numpy as np\nfrom repro.registry import register\n"


def _contract_hits(lint_snippet, code, opt_out):
    """hook-conformance findings for the contract opted out of by ``opt_out``."""
    return [
        f for f in lint_snippet(code, "hook-conformance", rel=MOD)
        if f"`{opt_out} = False`" in f.message
    ]


class TestCollectorMergeDiscipline:
    def test_collector_without_merge_or_declaration_fires(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'bad')\n"
            "class Bad:\n"
            "    def on_event(self, ev):\n"
            "        pass\n"
        )
        hits = _contract_hits(lint_snippet, code, "mergeable")
        assert len(hits) == 1 and "Bad" in hits[0].message

    def test_merge_shards_satisfies(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'good')\n"
            "class Good:\n"
            "    def merge_shards(self, shards):\n"
            "        pass\n"
        )
        assert _contract_hits(lint_snippet, code, "mergeable") == []

    def test_mergeable_false_satisfies(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'optout')\n"
            "class OptOut:\n"
            "    mergeable = False\n"
        )
        assert _contract_hits(lint_snippet, code, "mergeable") == []

    def test_annotated_mergeable_false_satisfies(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'optout')\n"
            "class OptOut:\n"
            "    mergeable: bool = False\n"
        )
        assert _contract_hits(lint_snippet, code, "mergeable") == []

    def test_mergeable_true_does_not_satisfy(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'bad')\n"
            "class Bad:\n"
            "    mergeable = True\n"
        )
        assert len(_contract_hits(lint_snippet, code, "mergeable")) == 1

    def test_non_metrics_registrations_are_ignored(self, lint_snippet):
        code = _IMPORTS + "@register('policy', 'p')\nclass P:\n    pass\n"
        assert _contract_hits(lint_snippet, code, "mergeable") == []


class TestCollectorSnapshotDiscipline:
    def test_collector_without_pair_or_declaration_fires(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'bad')\n"
            "class Bad:\n"
            "    def on_event(self, ev):\n"
            "        pass\n"
        )
        hits = _contract_hits(lint_snippet, code, "snapshottable")
        assert len(hits) == 1
        assert "Bad" in hits[0].message
        assert "restore/snapshot" in hits[0].message  # names both missing methods

    def test_half_a_pair_fires_naming_the_missing_half(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'half')\n"
            "class Half:\n"
            "    def snapshot(self):\n"
            "        return {}\n"
        )
        hits = _contract_hits(lint_snippet, code, "snapshottable")
        assert len(hits) == 1
        assert "missing restore " in hits[0].message
        assert "snapshot/" not in hits[0].message  # snapshot exists

    def test_snapshot_restore_pair_satisfies(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'good')\n"
            "class Good:\n"
            "    def snapshot(self):\n"
            "        return {}\n"
            "    def restore(self, state):\n"
            "        pass\n"
        )
        assert _contract_hits(lint_snippet, code, "snapshottable") == []

    def test_snapshottable_false_satisfies(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'optout')\n"
            "class OptOut:\n"
            "    snapshottable = False\n"
        )
        assert _contract_hits(lint_snippet, code, "snapshottable") == []

    def test_annotated_snapshottable_false_satisfies(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'optout')\n"
            "class OptOut:\n"
            "    snapshottable: bool = False\n"
        )
        assert _contract_hits(lint_snippet, code, "snapshottable") == []

    def test_snapshottable_true_does_not_satisfy(self, lint_snippet):
        code = _IMPORTS + (
            "@register('metrics', 'bad')\n"
            "class Bad:\n"
            "    snapshottable = True\n"
        )
        assert len(_contract_hits(lint_snippet, code, "snapshottable")) == 1

    def test_merge_discipline_opt_out_does_not_transfer(self, lint_snippet):
        # `mergeable = False` opts out of sharding, not of checkpointing.
        code = _IMPORTS + (
            "@register('metrics', 'bad')\n"
            "class Bad:\n"
            "    mergeable = False\n"
        )
        assert len(_contract_hits(lint_snippet, code, "snapshottable")) == 1

    def test_non_metrics_registrations_are_ignored(self, lint_snippet):
        code = _IMPORTS + "@register('failure', 'f')\nclass F:\n    pass\n"
        assert _contract_hits(lint_snippet, code, "snapshottable") == []


class TestFailureRngDiscipline:
    def test_module_draw_inside_failure_model_fires(self, lint_snippet):
        code = _IMPORTS + (
            "@register('failure', 'bad')\n"
            "class Bad:\n"
            "    def events(self, horizon, rng):\n"
            "        return np.random.exponential(1.0)\n"
        )
        hits = lint_snippet(code, "rng-taint", rel=MOD)
        assert len(hits) == 1 and "np.random.exponential" in hits[0].message

    def test_private_default_rng_fires(self, lint_snippet):
        # A model building its own generator dodges the sliced flat-seed
        # schedule even if the seed "looks" deterministic.
        code = _IMPORTS + (
            "@register('failure', 'bad')\n"
            "class Bad:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = np.random.default_rng(seed)\n"
        )
        assert len(lint_snippet(code, "rng-taint", rel=MOD)) == 1

    def test_passed_rng_draws_are_clean(self, lint_snippet):
        code = _IMPORTS + (
            "@register('failure', 'good')\n"
            "class Good:\n"
            "    def events(self, horizon, rng):\n"
            "        return rng.exponential(1.0, size=4)\n"
        )
        assert lint_snippet(code, "rng-taint", rel=MOD) == []

    def test_generator_annotations_are_sanctioned(self, lint_snippet):
        code = _IMPORTS + (
            "@register('failure', 'good')\n"
            "class Good:\n"
            "    def events(self, horizon, rng: np.random.Generator):\n"
            "        return rng.poisson(2.0)\n"
        )
        assert lint_snippet(code, "rng-taint", rel=MOD) == []

    def test_annotated_attribute_declaration_is_clean(self, lint_snippet):
        code = _IMPORTS + (
            "@register('failure', 'good')\n"
            "class Good:\n"
            "    rng: np.random.Generator\n"
        )
        assert lint_snippet(code, "rng-taint", rel=MOD) == []

    def test_unregistered_classes_are_ignored(self, lint_snippet):
        code = _IMPORTS + (
            "class Helper:\n"
            "    def noise(self):\n"
            "        return np.random.rand()\n"
        )
        # The module-level draw is still a finding (it is one anywhere),
        # but not a failure-model finding: Helper is not registered.
        hits = lint_snippet(code, "rng-taint", rel=MOD)
        assert [f.message.split(" — ")[0] for f in hits] == [
            "module-level numpy RNG call np.random.rand()"
        ]
