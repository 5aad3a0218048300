"""Regression pins for the batched same-timestamp departure path.

``ClusterSimulator._handle_end_batch`` processes one timestamp's departures
with a single rebalance per touched server.  Its equivalence argument has
one documented exception: a batch that detaches *every* deflatable resident
of a server never runs a final rebalance there (``_rebalance`` early-returns
on an empty deflatable set), so the ``reclaimed`` residue the sequential
loop leaves behind comes from an intermediate membership the batch never
visits — and that residue feeds the availability score of later placements.
The handler must fall back to strict per-event processing for such
timestamps; these tests pin both the surgical residue case — in every
replay mode, since the one driver batches one-shot, stepped and resumed
replays alike — and the 20k-VM bench case where the divergence was first
observed.
"""

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.simulator.reference import ReferenceClusterSimulator
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace
from repro.traces.schema import VMTraceRecord, VMTraceSet


def _record(vm_id, cls, cores, start, length, util):
    return VMTraceRecord(
        vm_id=vm_id,
        vm_class=cls,
        cores=cores,
        memory_mb=1024,
        start_interval=start,
        cpu_util=np.full(length, util),
    )


def _one_shot(sim, traces, config):
    return sim, sim.run()


def _stepped_to_the_batch(sim, traces, config):
    # The boundary sits on the batch timestamp: t=10 is left for run().
    sim.run_until(10)
    return sim, sim.run()


def _resumed_from_snapshot(sim, traces, config):
    sim.run_until(10.5)
    resumed = ClusterSimulator(traces, config)
    resumed.restore(sim.snapshot())
    return resumed, resumed.run()


@pytest.mark.parametrize(
    "replay",
    [_one_shot, _stepped_to_the_batch, _resumed_from_snapshot],
    ids=["run", "stepped", "resumed"],
)
def test_emptying_batch_matches_sequential_reclaimed_residue(replay):
    """All deflatable residents of a server depart at one timestamp.

    Timeline on the single 10-core server: two 4-core interactive VMs are
    resident when a 6-core on-demand VM arrives at t=2, pushing committed
    cores to 14 and deflating both (the deterministic policy's all-or-
    nothing reclaim leaves ``reclaimed > 0``).  Both deflatable VMs end at
    t=10 — the same timestamp — so the batched path would detach both and
    then find the deflatable set empty, skipping the rebalance that the
    sequential loop ran while one VM still remained (which restored the
    survivor and zeroed ``reclaimed``).  The handler must replay such
    timestamps per-event: afterwards, optimized and reference bookkeeping
    agree exactly, including the scoring-visible ``reclaimed`` rows —
    whether the replay runs in one shot, stops right before the batch, or
    resumes from a snapshot taken after it.
    """
    traces = VMTraceSet(
        records=[
            _record("d1", VMClass.INTERACTIVE, 4, start=0, length=10, util=0.05),
            _record("d2", VMClass.INTERACTIVE, 4, start=0, length=10, util=0.05),
            _record("od", VMClass.UNKNOWN, 6, start=2, length=20, util=0.9),
        ]
    )
    config = ClusterSimConfig(n_servers=1, cores_per_server=10.0, policy="deterministic")
    opt, opt_result = replay(ClusterSimulator(traces, config), traces, config)
    ref = ReferenceClusterSimulator(traces, config)
    ref_result = ref.run()
    # The scenario must actually deflate, or the residue path was never hit.
    assert opt_result.mean_deflation > 0.0
    assert opt_result == ref_result
    # The residue itself: after the emptying departure the sequential loop
    # leaves reclaimed == 0 (the last non-empty rebalance restored the
    # survivor under zero pressure); a naive batch keeps the stale value.
    assert np.array_equal(opt.reclaimed, ref.reclaimed)
    assert float(opt.reclaimed.sum()) == 0.0


@pytest.mark.slow
def test_deterministic_scale_equivalence_20k():
    """The bench case where the stale-residue divergence first surfaced.

    ``deterministic @ oc 0.3`` on the seed-11 20k-VM trace: the emptied-
    server residue skewed availability scores enough to flip placements
    (first visible as a spurious deflation around t=452 on server 27).
    Small traces never hit the flip, so this exact configuration is pinned
    at full size in the slow tier.
    """
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=20000, seed=11))
    n_servers = servers_for_overcommitment(traces, 0.3)
    config = ClusterSimConfig(n_servers=n_servers, policy="deterministic")
    opt = ClusterSimulator(traces, config).run()
    ref = ReferenceClusterSimulator(traces, config).run()
    assert opt == ref
