"""Bit-identity of the replay's scalar and vectorised hot paths (docs/performance.md).

Two rewrites of per-event and collect-time work must give the bits of the
code they replace:

* **One-row placement refresh.**  ``ClusterSimulator._availability_row``
  computes one server's availability in Python floats and hands it to the
  scorer's ``update_row`` hook; the many-row refresh uses NumPy
  (``_availability`` + ``row_state``).  For every registered scorer, the
  row the hook writes must equal ``row_state`` of NumPy's row, bit for
  bit, on every server after every driver step of randomized replays, and
  on hand-built zero-capacity (revoked) rows, where NumPy yields NaN and
  ``±inf``.
* **Per-lifetime collect.**  ``_vm_terms`` computes every VM's metric
  terms from ``(k, L)`` blocks of one lifetime.  They must equal a plain
  per-VM loop, kept here, over randomized replays with preempted,
  requeued and streaming-compacted VMs.
"""

from __future__ import annotations

import numpy as np
import pytest
from strategies import scenario_batch

from repro.registry import create, names
from repro.scenario import ClusterSimEngine, Scenario, ScenarioStream, resolve_cluster
from repro.simulator.cluster_sim import _sequential_sum

SCORERS = tuple(names("scorer"))


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns of ``values`` (NaN payloads and zero signs count)."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


# -- one-row placement refresh -------------------------------------------------------


def _check_row(sim, server: int, scorers) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        want = sim._availability(slice(server, server + 1))
    got = sim._availability_row(server)
    assert _bits(got).tolist() == _bits(want[0]).tolist(), (server, got, want)
    n = len(sim.residents)
    for scorer in scorers:
        # A filler state, so the hook must overwrite row `server` and only it.
        filler = np.linspace(0.1, 0.9, 2 * n).reshape(n, 2)
        state = tuple(scorer.row_state(filler))
        before = tuple(a.copy() for a in state)
        scorer.update_row(state, server, got)
        with np.errstate(divide="ignore", invalid="ignore"):
            fresh = scorer.row_state(want)
        for cached, old, new in zip(state, before, fresh):
            assert _bits(cached[server]).tolist() == _bits(new[0]).tolist(), scorer.name
            others = np.arange(n) != server
            assert _bits(cached[others]).tolist() == _bits(old[others]).tolist()


def _check_every_row(sim, scorers) -> None:
    for server in range(len(sim.residents)):
        _check_row(sim, server, scorers)


def _checked_replay(scenario: Scenario) -> int:
    """Replay with every row checked after every step; returns zero-capacity rows seen."""
    sim = ClusterSimEngine().build(scenario)
    scorers = [create("scorer", name) for name in SCORERS]
    zero_rows = []
    sim._on_step = lambda t, kind, key: (
        _check_every_row(sim, scorers),
        zero_rows.append(int((sim.server_cap == 0.0).any(axis=1).sum())),
    )
    sim.run()
    return sum(zero_rows)


def test_update_row_matches_row_state_on_randomized_replays(fuzz_seed):
    zero_rows = 0
    for i, scenario in enumerate(scenario_batch(fuzz_seed, 6)):
        try:
            zero_rows += _checked_replay(scenario)
        except AssertionError as exc:
            raise AssertionError(
                f"--repro-fuzz-seed={fuzz_seed} index={i}: {scenario.describe()}"
            ) from exc
    revoking = (
        Scenario(name="revoking")
        .with_workload("azure", n_vms=150, seed=11)
        .with_overcommitment(0.4)
        .with_failures("spot", rate=0.006, seed=5, response="evacuate")
    )
    zero_rows += _checked_replay(revoking)
    assert zero_rows, "no revoked server was checked; the zero-capacity case is vacuous"


@pytest.mark.parametrize("policy", ("proportional", "preemption"))
def test_update_row_matches_row_state_on_zero_capacity_rows(policy):
    """Hand-built revoked rows: 0/0 is NaN, x/0 is inf, in either dimension."""
    scenario = (
        Scenario(name="zero-rows")
        .with_workload("azure", n_vms=60, seed=3)
        .with_servers(4)
        .with_policy(policy)
    )
    sim = ClusterSimEngine().build(scenario)
    scorers = [create("scorer", name) for name in SCORERS]
    cases = [
        # server_cap, committed, reclaimed, defl_cap, defl_floor
        ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (8.0, 4096.0), (0.0, 0.0), (8.0, 4096.0), (0.4, 204.8)),
        ((0.0, 0.0), (8.0, 4096.0), (2.0, 512.0), (8.0, 4096.0), (0.4, 204.8)),
        ((0.0, 65536.0), (8.0, 4096.0), (1.5, 0.0), (6.0, 2048.0), (0.3, 102.4)),
        ((24.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        ((24.0, 0.0), (30.0, 2048.0), (4.0, 0.0), (16.0, 2048.0), (0.8, 102.4)),
        ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (0.0, 0.0)),
    ]
    for cap, com, recl, dcap, dfloor in cases:
        sim.server_cap[1] = cap
        sim.committed[1] = com
        sim.reclaimed[1] = recl
        sim.defl_cap[1] = dcap
        sim.defl_floor[1] = dfloor
        _check_row(sim, 1, scorers)


def test_one_dirty_row_goes_through_the_hook(monkeypatch):
    """The scalar path is the one a single admit or departure takes."""
    scenario = Scenario(name="hook").with_workload("azure", n_vms=80, seed=5).with_servers(6)
    sim = ClusterSimEngine().build(scenario)
    calls = []
    hook = type(sim._scorer).update_row
    monkeypatch.setattr(
        type(sim._scorer),
        "update_row",
        lambda self, state, i, avail: (calls.append(i), hook(self, state, i, avail)),
    )
    result = sim.run()
    assert calls
    assert result == ClusterSimEngine().build(scenario).run()


# -- reclaimed rows ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 130, 1000])
def test_sequential_sum_is_the_order_of_sum_axis0(n):
    """A server's reclaimed row was ``new_reclaimed.sum(axis=0)`` over the
    per-VM reclaims; ``_sequential_sum`` of one column has its bits."""
    rng = np.random.default_rng(n)
    for _ in range(50):
        col = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
        want = np.column_stack([col, col]).sum(axis=0)[0]
        assert _bits(_sequential_sum(col)).tolist() == _bits(want).tolist()
    # All -0.0: the sum starts from +0.0, as ``sum(axis=0)`` does.
    zeros = np.full(n, -0.0)
    assert _bits(_sequential_sum(zeros)).tolist() == _bits(zeros[:, None].sum(axis=0)[0]).tolist()


# -- per-lifetime collect ------------------------------------------------------------


def _loop_series(sim, vm: int) -> np.ndarray:
    """One VM's allocation series: the last history row at or before each point."""
    lifetime = int(sim.vm_lifetime[vm])
    times, fracs = sim._history_of(vm)
    if times.size == 0:
        return np.ones(lifetime)
    grid = np.arange(lifetime, dtype=np.float64)
    pos = np.searchsorted(times - sim.vm_start[vm], grid, side="right") - 1
    return np.where(pos >= 0, fracs[np.clip(pos, 0, fracs.size - 1)], 1.0)


def _loop_terms(sim, vm: int) -> tuple[float, float, float, float]:
    """One VM's ``(demanded, lost, deflation, alloc_integral)``, the plain way."""
    util = sim.traces.series(vm)
    cores = float(sim.vm_caps[vm, 0])
    alloc = _loop_series(sim, vm)
    return (
        float(util.sum()) * cores,
        float(np.maximum(util - alloc, 0.0).sum()) * cores,
        float((1.0 - alloc).sum()) * cores,
        float(alloc.sum()),
    )


def _assert_terms_match(terms, reference_sim) -> None:
    """``terms`` (a ``VMMetricTerms``) equal the loop over ``reference_sim``."""
    want = np.array([_loop_terms(reference_sim, i) for i in terms.sel.tolist()]).reshape(-1, 4)
    got = np.column_stack([terms.demanded, terms.lost, terms.deflation, terms.alloc_integral])
    assert _bits(got).tolist() == _bits(want).tolist()
    # The allocation series itself is one row of the block lookup.
    for i in terms.sel.tolist()[:50]:
        got = reference_sim._allocation_series(i)
        assert _bits(got).tolist() == _bits(_loop_series(reference_sim, i)).tolist()


def _replayed(scenario: Scenario):
    sim = ClusterSimEngine().build(scenario)
    sim.run()
    return sim


#: Regimes that end deflatable VMs early: the preemption baseline evicts
#: them, spot kills drop them (fractional revocation times), and a kill
#: with a restart delay requeues them onto a new server.
TERM_REGIMES = {
    "preemption": lambda s: s.with_policy("preemption"),
    "deflated": lambda s: s.with_policy("priority"),
    "spot-kill": lambda s: s.with_failures("spot", rate=0.005, seed=7, response="kill"),
    "kill-restart": lambda s: s.with_failures(
        "spot", rate=0.005, seed=7, response="kill", restart_delay=3
    ),
    "evacuate": lambda s: s.with_failures("spot", rate=0.005, seed=9, response="evacuate"),
}


@pytest.fixture(scope="module")
def tight():
    return (
        Scenario(name="terms")
        .with_workload("azure", n_vms=400, seed=21)
        .with_overcommitment(0.6)
    )


@pytest.mark.parametrize("regime", sorted(TERM_REGIMES))
def test_vectorised_terms_equal_per_vm_loop(tight, regime):
    sim = _replayed(TERM_REGIMES[regime](tight))
    terms = sim._metric_terms()
    svm, _, _ = sim._history_arrays()
    rows = np.searchsorted(svm, terms.sel, "right") - np.searchsorted(svm, terms.sel, "left")
    assert (rows > 1).any(), "no deflated or preempted VM; the block path is vacuous"
    _assert_terms_match(terms, sim)


def test_terms_cover_early_ends_and_requeues(tight):
    """The regimes above are not vacuous: VMs end early and restart."""
    killed = _replayed(TERM_REGIMES["spot-kill"](tight))
    assert (killed.vm_preempted & killed.vm_deflatable).any()
    restarted = _replayed(TERM_REGIMES["kill-restart"](tight))
    # A requeued VM's history runs 1.0 ... 0.0 (killed) ... then restarts.
    svm, _, sf = restarted._history_arrays()
    requeued = [
        vm
        for vm in np.unique(svm).tolist()
        if 0.0 in sf[svm == vm][:-1].tolist() and restarted.vm_placed[vm]
    ]
    assert requeued


def test_randomized_terms_equal_per_vm_loop(fuzz_seed):
    for i, scenario in enumerate(scenario_batch(fuzz_seed, 8)):
        try:
            sim = _replayed(scenario)
            _assert_terms_match(sim._metric_terms(), sim)
        except AssertionError as exc:
            raise AssertionError(
                f"--repro-fuzz-seed={fuzz_seed} index={i}: {scenario.describe()}"
            ) from exc


@pytest.mark.parametrize("regime", ("deflated", "kill-restart"))
def test_compacted_terms_equal_per_vm_loop(tight, regime):
    """Terms finalized by streaming compaction equal the loop over an
    uncompacted replay of the same scenario (whose history is whole)."""
    scenario = TERM_REGIMES[regime](tight)
    traces, _ = resolve_cluster(scenario)
    horizon = float(traces.horizon())
    stream = ScenarioStream(scenario, compact=True)
    for k in range(1, 8):
        stream.advance(horizon * k / 8)
    sim = stream._sim
    assert sim._final_terms is not None and sim._final_terms["mask"].any()
    stream.result()
    _assert_terms_match(sim._metric_terms(), _replayed(scenario))


# -- server-array layout -------------------------------------------------------------


def test_server_arrays_stay_fortran_ordered():
    """Server arrivals and a snapshot restore keep the column layout that
    the fleet-wide fit tests are sized on (each dimension contiguous)."""
    scenario = (
        Scenario(name="layout")
        .with_workload("azure", n_vms=150, seed=4)
        .with_overcommitment(0.4)
        .with_failures("elastic-pool", rate=0.004, arrival_rate=0.02, seed=7)
    )
    traces, _ = resolve_cluster(scenario)
    sim = ClusterSimEngine().build(scenario)
    sim.run_until(0.5 * float(traces.horizon()))
    assert len(sim.residents) > sim._n_initial_servers, "no server arrived"
    resumed = ClusterSimEngine().build(scenario.with_checkpoint(sim.snapshot()))
    for built in (sim, resumed):
        for name in ("server_cap", "_cap_eps", "committed", "reclaimed", "defl_cap", "defl_floor"):
            assert getattr(built, name).flags.f_contiguous, name
