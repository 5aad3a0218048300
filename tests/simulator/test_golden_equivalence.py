"""Golden bit-equivalence of the optimized simulator vs. the pinned reference.

The fast-path rework of :class:`repro.simulator.cluster_sim.ClusterSimulator`
(incremental committed-cores scalar, cached candidate arrays, rebalance
fast path, array-backed allocation history, vectorized ``_collect``) is a
pure optimization: every observable of :class:`ClusterSimResult` — counts,
peak committed cores, throughput loss, mean deflation, and all revenue
dicts — must be **bit-identical** to the pre-optimization implementation
snapshotted in :mod:`repro.simulator.reference`.

The comparison runs a fixed 500-VM synthetic trace through all four
policies, flat and partitioned, at a cluster size tight enough to force
real deflation/preemption (so the non-trivial metric paths are exercised),
plus a roomy cluster (trivial fast paths) and a collectors run.

Deliberate exception: partitioned runs with more pools than servers are
NOT compared — the optimized simulator fixed the partition trim loop to
drop the smallest-demand pools there (see
``tests/simulator/test_partitioned.py::TestPartitionTrimRegression``),
while the reference preserves the old behaviour.  Every case here uses
``n_servers >= n_pools``, where the fix changes nothing.
"""

import pytest

from repro.registry import register, unregister
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.simulator.components import PlacementScorer
from repro.simulator.reference import ReferenceClusterSimulator
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

POLICIES = ("proportional", "priority", "deterministic", "preemption")

#: Result fields compared one by one (better pytest diffs than a single ==).
_FIELDS = (
    "n_vms",
    "n_deflatable",
    "n_placed",
    "n_rejected_deflatable",
    "n_rejected_on_demand",
    "n_preempted",
    "n_reclaim_failures",
    "peak_committed_cores",
    "total_capacity_cores",
    "throughput_loss",
    "mean_deflation",
    "revenue",
    "revenue_per_server",
    "collected",
)


@pytest.fixture(scope="module")
def golden_trace():
    return synthesize_azure_trace(AzureTraceConfig(n_vms=500, seed=2024))


@pytest.fixture(scope="module")
def tight_servers(golden_trace):
    # ~50% target overcommitment: enough pressure for deflation, rejection
    # and preemption events on every policy.
    return servers_for_overcommitment(golden_trace, 0.5)


def assert_bit_identical(golden_trace, config):
    expected = ReferenceClusterSimulator(golden_trace, config).run()
    actual = ClusterSimulator(golden_trace, config).run()
    for name in _FIELDS:
        exp, act = getattr(expected, name), getattr(actual, name)
        assert exp == act, f"{name}: reference={exp!r} optimized={act!r}"
    assert expected == actual  # config + every field, in one shot


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("partitioned", [False, True], ids=["flat", "partitioned"])
def test_tight_cluster_bit_identical(golden_trace, tight_servers, policy, partitioned):
    config = ClusterSimConfig(
        n_servers=tight_servers, policy=policy, partitioned=partitioned
    )
    assert_bit_identical(golden_trace, config)


@pytest.fixture(scope="module")
def score_only_scorer():
    """A plug-in that defines only ``score`` (``fullest-first``'s shape):
    the simulator reaches it through the per-row hook's defaults."""

    @register("scorer", "score-only")
    class ScoreOnlyScorer(PlacementScorer):
        name = "score-only"

        def score(self, demand_norm, avail_norm):
            return -avail_norm.sum(axis=1)

    yield ScoreOnlyScorer.name
    unregister("scorer", ScoreOnlyScorer.name)


@pytest.mark.parametrize("scorer", ("most-available", "least-available", "score-only"))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("partitioned", [False, True], ids=["flat", "partitioned"])
def test_scorer_bit_identical(
    golden_trace, tight_servers, score_only_scorer, policy, partitioned, scorer
):
    """The simulator scores cached per-server rows through
    ``PlacementScorer.row_state``/``score_rows``; the reference calls
    ``score`` on rows it builds per arrival.  Every scorer must agree with
    the reference bit for bit (cosine, the default, is the scorer of
    ``test_tight_cluster_bit_identical``)."""
    config = ClusterSimConfig(
        n_servers=tight_servers, policy=policy, partitioned=partitioned, scorer=scorer
    )
    assert_bit_identical(golden_trace, config)


@pytest.mark.parametrize("policy", ("proportional", "preemption"))
def test_roomy_cluster_bit_identical(golden_trace, tight_servers, policy):
    """No-pressure regime: the zero-required rebalance fast path dominates."""
    config = ClusterSimConfig(n_servers=3 * tight_servers, policy=policy)
    assert_bit_identical(golden_trace, config)


def test_collectors_and_min_fraction_bit_identical(golden_trace, tight_servers):
    config = ClusterSimConfig(
        n_servers=tight_servers,
        policy="priority",
        min_fraction=0.25,
        collectors=("event-counts", "timeline", "rejection-log"),
    )
    assert_bit_identical(golden_trace, config)


def test_post_build_surgery_bit_identical(golden_trace, tight_servers):
    """The build()-then-mutate flow (priority-level ablation) stays golden.

    The ablation re-quantizes ``vm_prio`` / ``vm_floor`` on a built
    simulator before run(); the optimized simulator's derived caches must
    reflect that surgery exactly like the reference's live per-event reads.
    """
    import numpy as np

    config = ClusterSimConfig(n_servers=tight_servers, policy="priority")
    levels = (np.arange(2) + 1) / 3.0  # quantize onto 2 levels
    results = []
    for cls in (ReferenceClusterSimulator, ClusterSimulator):
        sim = cls(golden_trace, config)
        quantized = levels[
            np.clip(np.searchsorted(levels, sim.vm_prio, side="left"), 0, 1)
        ]
        sim.vm_prio = np.where(sim.vm_deflatable, quantized, 1.0)
        sim.vm_floor = np.maximum(
            sim.vm_caps * config.min_fraction, sim.vm_caps * sim.vm_prio[:, None]
        )
        sim.vm_floor[~sim.vm_deflatable] = 0.0
        results.append(sim.run())
    expected, actual = results
    for name in _FIELDS:
        assert getattr(expected, name) == getattr(actual, name), name


def test_allocation_series_match(golden_trace, tight_servers):
    """Per-VM allocation series (not just aggregates) agree bitwise."""
    config = ClusterSimConfig(n_servers=tight_servers, policy="proportional")
    ref = ReferenceClusterSimulator(golden_trace, config)
    ref.run()
    opt = ClusterSimulator(golden_trace, config)
    opt.run()
    for i, rec in enumerate(golden_trace):
        r_out = ref.outcomes[i]
        assert (r_out.placed, r_out.rejected, r_out.preempted) == (
            opt.vm_placed[i],
            opt.vm_rejected[i],
            opt.vm_preempted[i],
        )
        if not r_out.deflatable or not r_out.placed:
            continue
        r_series = ref._allocation_series(rec, r_out)
        o_series = opt._allocation_series(i)
        assert r_series.tolist() == o_series.tolist(), f"vm {i}"
