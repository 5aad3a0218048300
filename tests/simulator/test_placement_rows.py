"""Placement-row cache coherence (docs/testing.md).

:class:`~repro.simulator.cluster_sim.ClusterSimulator` keeps every
server's normalised availability row, as the scorer's per-row state
(cosine: the padded row and its norm), and recomputes only the rows a
write marked dirty: ``committed``, ``reclaimed``, ``defl_cap``,
``defl_floor`` or ``server_cap`` of that server.  Property: before every
placement decision and after every driver step, the refreshed cache
equals a from-scratch recomputation of every row.  A writer that forgets
its dirty mark leaves a stale row here long before the stale row flips a
placement in the equivalence suites.  The checks only read state, so an
instrumented replay must also return exactly the uninstrumented result.

The same checkpoints assert the model invariants behind those rows, on
every server not yet revoked (draining servers included):

* a server with no deflatable resident reclaims nothing;
* ``0 <= reclaimed <= defl_cap - defl_floor`` (to 1e-9);
* ``committed`` is the sum of the residents' capacities (to 1e-9);
* a revoked server hosts no VM.
"""

from __future__ import annotations

import numpy as np
import pytest
from strategies import scenario_batch

from repro.scenario import ClusterSimEngine, Scenario, resolve_cluster

POLICIES = ("proportional", "priority", "deterministic", "preemption")

#: Failure regimes covering every writer the injector reaches: dips
#: (capacity), revocations and evacuations, warned drains whose budgeted
#: migrations fail and reattach, server arrivals, kills with requeues.
REGIMES = {
    "failure-free": lambda s: s,
    "partitioned": lambda s: s.with_partitions(),
    "capacity-dips": lambda s: s.with_failures(
        "capacity-dips", rate=0.006, depth=0.5, mean_duration=12, seed=3
    ),
    "spot-evacuate": lambda s: s.with_failures("spot", rate=0.004, seed=7, response="evacuate"),
    "warned-drain": lambda s: s.with_failures(
        "spot", rate=0.006, seed=7, response="evacuate", warning_intervals=3, evacuation_budget=1
    ),
    "elastic": lambda s: s.with_failures("elastic-pool", rate=0.004, arrival_rate=0.02, seed=7),
    "spot-kill": lambda s: s.with_failures(
        "spot", rate=0.004, seed=7, response="kill", restart_delay=2
    ),
}


def _expected_rows(sim) -> tuple[np.ndarray, ...]:
    """Every server's row state, recomputed from the live arrays."""
    com, cap = sim.committed, sim.server_cap
    with np.errstate(divide="ignore", invalid="ignore"):
        if sim._policy is None:
            avail = np.maximum(cap - com, 0.0)
        else:
            recl = sim.reclaimed
            free = np.maximum(cap - (com - recl), 0.0)
            headroom = np.maximum((sim.defl_cap - recl) - sim.defl_floor, 0.0)
            avail = free + headroom / np.maximum(com / cap, 1.0)
        return tuple(sim._scorer.row_state(avail / cap))


def _revoked(sim) -> set[int]:
    return set() if sim._injector is None else sim._injector._revoked


def _assert_coherent(sim, settled: bool = True) -> None:
    """Rows equal a recomputation, and the model invariants hold.

    ``settled`` is False inside a driver step (before a placement), where a
    revocation may still be evacuating its residents one by one.
    """
    cached = sim._fresh_rows()
    expected = _expected_rows(sim)
    assert len(cached) == len(expected)
    for got, want in zip(cached, expected):
        # NaN rows (revoked servers, zero capacity) compare equal.
        np.testing.assert_array_equal(got, want)
    revoked = _revoked(sim)
    for server, residents in enumerate(sim.residents):
        if server in revoked:
            assert not (settled and residents), f"revoked server {server} hosts {residents}"
            continue
        reclaimed = sim.reclaimed[server]
        if not sim.resident_deflatable[server]:
            assert not reclaimed.any(), (
                f"server {server} has no deflatable resident but reclaims {reclaimed}"
            )
        assert (reclaimed >= 0.0).all(), (server, reclaimed)
        headroom = sim.defl_cap[server] - sim.defl_floor[server]
        assert (reclaimed <= headroom + 1e-9).all(), (server, reclaimed, headroom)
        caps = sim.vm_caps[list(residents)].sum(axis=0)
        assert np.abs(sim.committed[server] - caps).max() <= 1e-9, (server, caps)


def _instrument(sim, emptied: list | None = None):
    """Check coherence before every placement and after every driver step.

    ``emptied``, when given, collects every non-revoked server found with
    no deflatable resident right after a checkpoint that saw it reclaim,
    so a test can show the zero-reclaim invariant was exercised.
    """
    place = sim._place
    reclaiming: list[int] = []

    def check(settled):
        _assert_coherent(sim, settled)
        if emptied is not None:
            revoked = _revoked(sim)
            emptied.extend(
                s for s in reclaiming if not sim.resident_deflatable[s] and s not in revoked
            )
            reclaiming[:] = np.flatnonzero(sim.reclaimed.any(axis=1)).tolist()

    def checked_place(t, vm):
        check(settled=False)
        return place(t, vm)

    sim._place = checked_place
    sim._on_step = lambda t, kind, key: check(settled=True)
    return sim


def _checked_run(scenario: Scenario):
    result = _instrument(ClusterSimEngine().build(scenario)).run()
    assert result == ClusterSimEngine().build(scenario).run()


@pytest.fixture(scope="module")
def base_scenario():
    # Tight cluster: deflation, rejections and failed drain migrations.
    return (
        Scenario(name="rows")
        .with_workload("azure", n_vms=200, seed=2024)
        .with_overcommitment(0.5)
    )


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("policy", POLICIES)
def test_rows_match_recomputation(base_scenario, policy, regime):
    _checked_run(REGIMES[regime](base_scenario.with_policy(policy)))


def test_emptied_servers_reclaim_nothing():
    """The last deflatable resident leaves a deflated server: no residue.

    Neither the 200-VM base nor the randomized batches empty a server
    that was still reclaiming; this trace does (three times), so the
    zero-reclaim invariant is checked on real emptied servers.
    """
    scenario = (
        Scenario(name="residue")
        .with_workload("azure", n_vms=500, seed=2024)
        .with_overcommitment(0.3)
        .with_policy("proportional")
    )
    emptied: list[int] = []
    result = _instrument(ClusterSimEngine().build(scenario), emptied).run()
    assert emptied, "no server was emptied after reclaiming; the check is vacuous"
    assert result == ClusterSimEngine().build(scenario).run()


@pytest.mark.parametrize("scorer", ("most-available", "least-available"))
def test_default_hook_rows_match_recomputation(base_scenario, scorer):
    scenario = REGIMES["capacity-dips"](base_scenario.with_scorer(scorer))
    _checked_run(scenario)


@pytest.mark.parametrize("regime", ("capacity-dips", "warned-drain", "elastic"))
@pytest.mark.parametrize("policy", ("priority", "preemption"))
def test_restore_rebuilds_every_row(base_scenario, policy, regime):
    """run_until + snapshot/restore: the restored simulator's rows are
    rebuilt from the restored arrays, then stay coherent to the end."""
    scenario = REGIMES[regime](base_scenario.with_policy(policy))
    traces, _ = resolve_cluster(scenario)
    warm = _instrument(ClusterSimEngine().build(scenario))
    warm.run_until(0.4 * float(traces.horizon()))
    _assert_coherent(warm)
    resumed = ClusterSimEngine().build(scenario.with_checkpoint(warm.snapshot()))
    _assert_coherent(resumed)
    assert _instrument(resumed).run() == ClusterSimEngine().build(scenario).run()


def _check_batch(seed: int, count: int) -> None:
    for i, scenario in enumerate(scenario_batch(seed, count)):
        try:
            _checked_run(scenario)
        except AssertionError as exc:
            raise AssertionError(
                f"--repro-fuzz-seed={seed} index={i}: {scenario.describe()}"
            ) from exc


def test_randomized_rows_match_recomputation(fuzz_seed):
    _check_batch(fuzz_seed, 8)


@pytest.mark.slow
def test_randomized_rows_match_recomputation_full(fuzz_seed):
    _check_batch(fuzz_seed, 50)
