"""The fast, unvalidated entry must agree with the validated one and never
bypass a subclass's policy hooks.

The fast entry is ``reclaim_plan(caps, pool, prios)(required)``: the
cluster simulator keeps one plan per server pool and solves it on Python
float lists it gathered from columns it built itself, with the policy's
floors already applied (``policy.pool``).  ``target_allocations``
validates its arrays, applies the floors and then solves through a
one-shot plan.  (The file keeps the name of the separate
``target_allocations_trusted`` entry this path replaced.)
"""

import numpy as np
import pytest

from repro.core.deflation import (
    DeterministicPolicy,
    PriorityPolicy,
    ProportionalPolicy,
)
from repro.registry import register, unregister
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

STOCK = [ProportionalPolicy, PriorityPolicy, DeterministicPolicy]

CAPS = np.array([8.0, 4.0, 2.0])
MINS = np.array([1.0, 0.5, 0.25])
PRIOS = np.array([0.2, 0.4, 0.8])
REQUIREDS = (-1.0, 0.0, 1e-10, 0.5, 3.0, 6.0, 50.0)


def _halved(result: tuple[list[float], bool]) -> tuple[list[float], bool]:
    reclaim, satisfied = result
    return [r * 0.5 for r in reclaim], satisfied


def _plan(policy):
    """``policy``'s plan over the fixed pool, built as the simulator does."""
    pool = policy.pool(CAPS, MINS, PRIOS)
    return policy.reclaim_plan(CAPS.tolist(), pool.tolist(), PRIOS.tolist())


def _replay_calls(policy_cls: type, calls: list) -> int:
    """Replay a tight 300-VM trace under ``policy_cls``; how often it was hit."""
    register("policy", "test-hooked")(policy_cls)
    try:
        traces = synthesize_azure_trace(AzureTraceConfig(n_vms=300, seed=7))
        n = servers_for_overcommitment(traces, 0.5)
        calls.clear()
        ClusterSimulator(traces, ClusterSimConfig(n_servers=n, policy="test-hooked")).run()
        return len(calls)
    finally:
        unregister("policy", "test-hooked")


@pytest.mark.parametrize("base_cls", STOCK)
def test_trusted_matches_validated_for_stock_policies(base_cls):
    policy = base_cls()
    for required in REQUIREDS:
        a = policy.target_allocations(CAPS, MINS, PRIOS, required)
        reclaim, satisfied = _plan(policy)(required)
        assert a.reclaimed.tobytes() == np.array(reclaim).tobytes()
        assert a.allocations.tobytes() == (CAPS - np.array(reclaim)).tobytes()
        assert a.satisfied == satisfied


@pytest.mark.parametrize("base_cls", STOCK)
def test_trusted_honors_subclass_target_allocations(base_cls):
    """A subclass that raises every VM's floor gets those floors from the
    validated entry, the fast plan and ``max_reclaimable`` alike."""

    class Custom(base_cls):
        def floors(self, capacities, minimums, priorities):
            return np.maximum(super().floors(capacities, minimums, priorities), 0.75 * capacities)

    custom = Custom()
    floors = custom.floors(CAPS, MINS, PRIOS)
    total = custom.max_reclaimable(CAPS, MINS, PRIOS)
    assert total == float((CAPS - floors).sum())
    assert total < base_cls().max_reclaimable(CAPS, MINS, PRIOS)
    plan = _plan(custom)
    for required in (0.5 * total, total, 50.0):
        via_hook = custom.target_allocations(CAPS, MINS, PRIOS, required)
        via_plan, _ = plan(required)
        assert via_plan == via_hook.reclaimed.tolist()
        assert (via_hook.allocations >= floors - 1e-9).all(), (
            "every solve path must keep each VM at or above the subclass's floors"
        )
        assert via_hook.satisfied == (required <= total)


@pytest.mark.parametrize("base_cls", STOCK)
def test_reclaim_plan_matches_trusted_for_stock_policies(base_cls):
    """One plan reused across solves, in any order, returns what a fresh
    one-shot plan does: no solve leaves state behind for the next (the
    priority plan builds its water-fill lazily, on the first interior solve)."""
    policy = base_cls()
    plan = _plan(policy)
    for required in REQUIREDS + REQUIREDS[::-1]:
        one_shot, one_shot_ok = _plan(policy)(required)
        cached, cached_ok = plan(required)
        assert np.array(cached).tobytes() == np.array(one_shot).tobytes()
        assert cached_ok == one_shot_ok


@pytest.mark.parametrize("base_cls", STOCK)
def test_reclaim_plan_honors_subclass_target_allocations(base_cls):
    """A subclass that sets its own target allocations by overriding
    ``reclaim_plan`` is honoured by ``target_allocations`` and by a replay."""
    calls = []

    class Custom(base_cls):
        def reclaim_plan(self, caps, pool, prios):
            calls.append(len(caps))
            inner = super().reclaim_plan(caps, pool, prios)
            return lambda required: _halved(inner(required))

    stock = base_cls().target_allocations(CAPS, MINS, PRIOS, 3.0)
    got = Custom().target_allocations(CAPS, MINS, PRIOS, 3.0)
    assert got.reclaimed.tolist() == (stock.reclaimed * 0.5).tolist()
    assert _replay_calls(Custom, calls) > 0
