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


def _assert_coherent(sim) -> None:
    cached = sim._fresh_rows()
    expected = _expected_rows(sim)
    assert len(cached) == len(expected)
    for got, want in zip(cached, expected):
        # NaN rows (revoked servers, zero capacity) compare equal.
        np.testing.assert_array_equal(got, want)


def _instrument(sim):
    """Check coherence before every placement and after every driver step."""
    place = sim._place

    def checked_place(t, vm):
        _assert_coherent(sim)
        return place(t, vm)

    sim._place = checked_place
    sim._on_step = lambda t, kind, key: _assert_coherent(sim)
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
