"""One solver path per deflation policy: plans, one-shot calls and floors.

Every caller reaches a policy's math through ``reclaim_plan``:
``target_allocations`` validates its inputs and solves through a one-shot
plan, and the cluster simulator keeps one plan per server pool.  This
file holds that path to three things:

(a) **bits** — every registered policy's reclaims on seeded pools (empty,
    zero-capacity, zero-pool, ``min == cap`` and tied-priority pools among
    them), through ``target_allocations`` and through one reused plan, hash
    to constants taken before the one-shot and plan entry points were
    merged.  The golden replay suites cannot see a drift here: the pinned
    reference simulator imports these same policies;
(b) **hooks** — a subclass overriding ``_solve`` is honoured by
    ``target_allocations`` and by a replay; ``_solve`` takes and returns
    Python float lists (``reclaim_plan`` and ``floors`` overrides are held
    in ``test_deflation_trusted.py``);
(c) **floors** — ``max_reclaimable`` is exactly what ``floors`` leaves, and
    a replay takes its per-VM floors from the policy, not from its name.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.deflation import (
    DeflationPolicy,
    DeterministicPolicy,
    PriorityPolicy,
    ProportionalPolicy,
    get_policy,
)
from repro.registry import names, register, unregister
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

SEED = 20261020
LEVELS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: sha256 over every (pool, required) result's ``reclaimed.tobytes()`` and
#: ``satisfied`` byte, over :func:`_pools` and :func:`_requireds` in order.
PINNED = {
    "deterministic": "94e8853796c97ec7d308a8d8cbff2d0af9133b17613321ed7c7ef041b970d1ac",
    "priority": "c0c94a8e3c220f69ee76b7c0054b20f547c9b4187cbfe015ebf639ddfa4fb70e",
    "priority-eq3": "6410f7e2d9f7c2d704aa551f3ea498ee08f1005294956d662e71fbe4a1cdfacd",
    "proportional": "389c7a5cd75bbca6aee2f5214518db9986eabb50f1ebcaff8fcabe260e66e88b",
}


def _pools() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(SEED)
    caps = rng.integers(1, 33, 6).astype(np.float64)
    pools = [
        (np.zeros(0), np.zeros(0), np.zeros(0)),  # empty
        (np.zeros(3), np.zeros(3), np.array([0.2, 0.4, 0.8])),  # zero capacity
        (caps, caps.copy(), rng.choice(LEVELS, 6)),  # min == cap: zero pool
        (caps, caps * 0.1, np.full(6, 0.4)),  # tied priorities
        (caps * 1024.0, caps * 51.2, rng.choice(LEVELS, 6)),  # memory-sized
    ]
    for _ in range(40):
        n = int(rng.integers(1, 25))
        caps = rng.integers(1, 33, n).astype(np.float64)
        mins = caps * rng.uniform(0.0, 0.9, n)
        pinned = rng.random(n) < 0.2
        mins[pinned] = caps[pinned]
        pools.append((caps, mins, rng.choice(LEVELS, n)))
    return pools


def _requireds(policy: DeflationPolicy, caps, mins, prios) -> list[float]:
    total = policy.max_reclaimable(caps, mins, prios)
    return [
        -1.0,
        0.0,
        1e-10,
        0.3 * total,
        0.7 * total,
        total - 1e-10,
        total,
        total + 1.0,
        float(caps.sum()) + 5.0,
    ]


def _digest(results) -> str:
    """``results`` are ``(reclaimed, satisfied)`` pairs, arrays or lists."""
    h = hashlib.sha256()
    for reclaimed, satisfied in results:
        h.update(np.asarray(reclaimed, dtype=np.float64).tobytes())
        h.update(b"1" if satisfied else b"0")
    return h.hexdigest()


@pytest.mark.parametrize("name", names("policy"))
def test_policy_bits_are_pinned(name):
    policy = get_policy(name)
    one_shot, planned = [], []
    for caps, mins, prios in _pools():
        plan = policy.reclaim_plan(
            caps.tolist(), policy.pool(caps, mins, prios).tolist(), prios.tolist()
        )
        for required in _requireds(policy, caps, mins, prios):
            res = policy.target_allocations(caps, mins, prios, required)
            one_shot.append((res.reclaimed, res.satisfied))
            planned.append(plan(required))
    assert _digest(one_shot) == PINNED[name]
    assert _digest(planned) == PINNED[name]


# -- (b) hooks -----------------------------------------------------------------------


def _halved(result: tuple[list[float], bool]) -> tuple[list[float], bool]:
    reclaim, satisfied = result
    return [r * 0.5 for r in reclaim], satisfied


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


CAPS = np.array([8.0, 4.0, 2.0])
MINS = np.array([1.0, 0.5, 0.25])
PRIOS = np.array([0.2, 0.4, 0.8])


@pytest.mark.parametrize("base_cls", [ProportionalPolicy, DeterministicPolicy])
def test_solve_override_is_honoured(base_cls):
    calls = []

    class Custom(base_cls):
        def _solve(self, caps, pool, prios, required):
            calls.append(required)
            return _halved(super()._solve(caps, pool, prios, required))

    stock = base_cls().target_allocations(CAPS, MINS, PRIOS, 3.0)
    got = Custom().target_allocations(CAPS, MINS, PRIOS, 3.0)
    assert got.reclaimed.tolist() == (stock.reclaimed * 0.5).tolist()
    assert _replay_calls(Custom, calls) > 0


def test_solve_only_plugin_runs_everywhere():
    """A from-scratch policy needs nothing but ``_solve``."""
    calls = []

    class EvenSplit(DeflationPolicy):
        def _solve(self, caps, pool, prios, required):
            calls.append(required)
            share = max(required, 0.0) / max(len(pool), 1)
            return self._finalize(caps, [min(p, share) for p in pool], max(required, 0.0))

    res = EvenSplit().target_allocations(CAPS, MINS, PRIOS, 3.0)
    assert res.reclaimed.tolist() == [1.0, 1.0, 1.0]
    assert EvenSplit().max_reclaimable(CAPS, MINS, PRIOS) == float((CAPS - MINS).sum())
    assert _replay_calls(EvenSplit, calls) > 0


# -- (c) floors ----------------------------------------------------------------------


@pytest.mark.parametrize("name", names("policy"))
def test_max_reclaimable_is_what_floors_leave(name):
    policy = get_policy(name)
    priority_floored = name in ("priority", "deterministic")
    for caps, mins, prios in _pools():
        floors = policy.floors(caps, mins, prios)
        expected = np.maximum(mins, prios * caps) if priority_floored else mins
        assert (floors == expected).all()
        total = policy.max_reclaimable(caps, mins, prios)
        assert total == float((caps - floors).sum())
        res = policy.target_allocations(caps, mins, prios, total)
        assert res.satisfied
        assert (res.allocations >= floors - 1e-9).all()


def test_replay_floors_come_from_the_policy_not_its_name():
    """The priority policy under another name replays exactly like itself:
    admission's floors and the policy's solves agree (a name check once
    gave the alias proportional floors and 551 reclaim failures here)."""
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=2000, seed=3))
    n = servers_for_overcommitment(traces, 0.6)
    register("policy", "prio-alias", priority_floor=True)(PriorityPolicy)
    try:
        alias = ClusterSimulator(traces, ClusterSimConfig(n_servers=n, policy="prio-alias")).run()
    finally:
        unregister("policy", "prio-alias")
    stock = ClusterSimulator(traces, ClusterSimConfig(n_servers=n, policy="priority")).run()
    assert stock.n_reclaim_failures == 0
    assert dataclasses.replace(alias, config=stock.config) == stock


class _LiftedFloors(ProportionalPolicy):
    """Floors that move again when re-applied: ``f(f(m)) > f(m)``."""

    def floors(self, capacities, minimums, priorities):
        return np.minimum(minimums + 0.1 * capacities, capacities)


def test_replay_applies_the_floors_once():
    """Admission reserves ``policy.floors`` and the solves reclaim down to
    the same floors: applying a non-idempotent ``floors`` a second time
    when building the solver pools once left 0.1 M_i per VM that admission
    had promised, and the replay counted reclaim failures."""
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=2000, seed=3))
    n = servers_for_overcommitment(traces, 0.6)
    register("policy", "lifted-floors")(_LiftedFloors)
    try:
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=n, policy="lifted-floors"))
        result = sim.run()
    finally:
        unregister("policy", "lifted-floors")
    caps, floor = sim.vm_caps, sim.vm_floor
    lifted = np.minimum(caps * sim.config.min_fraction + 0.1 * caps, caps)
    defl = sim.vm_deflatable
    assert (floor[defl] == lifted[defl]).all()
    assert result.n_reclaim_failures == 0
