"""Parallel parameter sweeps over scenarios, on the supervised runtime.

The paper's evaluation is a grid — policies x overcommitment levels x
pricing models replayed against one trace.  :func:`run_sweep` executes any
iterable of scenarios and returns an ordered :class:`ResultSet`; with
``workers > 1`` the scenarios fan out over supervised worker processes
(:mod:`repro.runtime`): a crashed or SIGKILLed worker loses only its
in-flight scenario (retried with bounded backoff in a fresh worker), a
hung scenario is killed at its wall-clock ``timeout``, and a raising
engine is captured as structured failure data — one bad point degrades
the grid instead of discarding every completed result.

Scenarios are plain data and every simulator run is deterministic, so the
parallel path is **bit-identical** to the serial one: the same scenario
produces the same floats regardless of which process ran it — or how many
times supervision had to retry it — and results come back in input order.
The test suite asserts this equivalence on Figure 20's grid and across
fork/spawn start methods.

Completed results persist incrementally: through the ``cache``
(:class:`~repro.scenario.cache.SweepCache`) as each scenario finishes,
and through an optional ``journal`` (:class:`~repro.runtime.SweepJournal`)
that also covers uncacheable scenarios, so an interrupted sweep resumes
from where it died — warm resume bit-identical to a cold run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from collections.abc import Iterable

from repro.errors import SimulationError, SweepError
from repro.registry import create
from repro.runtime import RetryPolicy, SweepJournal, supervised_map
from repro.scenario import engine as _engine_module  # noqa: F401  (registers engines)
from repro.scenario.cache import scenario_key
from repro.scenario.results import ResultSet, ScenarioFailure, ScenarioResult
from repro.scenario.scenario import Scenario

__all__ = ["fork_sweep", "run_scenario", "run_sweep"]


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario on its configured engine (a fresh engine instance)."""
    return create("engine", scenario.engine).run(scenario)


def _sweep_fingerprint(scenarios: list[Scenario]) -> str:
    """Order-sensitive identity of a sweep, for journal binding.

    Cacheable scenarios contribute their canonical
    :func:`~repro.scenario.cache.scenario_key`; scenarios that cannot be
    canonically hashed (explicit traces, numpy-scalar params) fall back to
    a pickle digest — stable within one environment, and a false mismatch
    merely resets the journal (the sweep re-runs, results unchanged).
    """
    digest = hashlib.sha256()
    for scenario in scenarios:
        try:
            token = scenario_key(scenario)
        except (SimulationError, TypeError):
            token = hashlib.sha256(pickle.dumps(scenario)).hexdigest()
        digest.update(token.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_sweep(
    scenarios: Iterable[Scenario],
    workers: int | None = None,
    cache=None,
    *,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    start_method: str | None = None,
    journal=None,
) -> ResultSet:
    """Run scenarios serially (``workers`` in {None, 0, 1}) or in parallel.

    Results are returned in scenario order either way, and the parallel
    path is bit-identical to the serial one — simulator runs are
    deterministic in their scenario, including failure-injected ones
    (schedules are generated from the spec's seed, never shared state),
    so neither worker count nor supervision retries ever change floats.

    Fault tolerance (``docs/robustness.md``):

    * ``retry`` — a :class:`~repro.runtime.RetryPolicy`; the default
      retries crashed/timed-out scenarios twice with exponential backoff
      and fails fast on raising engines.
    * ``timeout`` — shorthand for ``retry``'s per-scenario wall-clock
      budget in seconds (workers past it are killed and replaced).
    * ``on_error`` — ``"raise"`` (default, preserving the historical
      behavior: any scenario still failed after retries aborts the sweep
      with :class:`~repro.errors.SweepError`) or ``"collect"`` (failed
      scenarios come back as failed results inside the
      :class:`ResultSet`, which then reports partial completion).
    * ``start_method`` — multiprocessing start method override; defaults
      to ``REPRO_START_METHOD`` / platform resolution
      (:func:`~repro.runtime.resolve_start_method`).  Fork and spawn
      sweeps are bit-identical.

    ``cache`` is an optional :class:`~repro.scenario.cache.SweepCache`:
    cached scenarios are served without running, only the misses execute
    (still fanning out when ``workers`` > 1), and fresh results are
    stored back *as each scenario completes*, so an aborted sweep keeps
    what it finished.  A warm cache returns contents identical to a cold
    run; scenarios that cannot serialize (explicit traces) bypass the
    cache transparently.

    ``journal`` is an optional :class:`~repro.runtime.SweepJournal` (or a
    directory path for one): completed results are additionally written
    to disk incrementally — uncacheable scenarios included — and a rerun
    of the *same* sweep resumes from the journal, bit-identical to an
    uninterrupted cold run.  Failed scenarios are never journaled; a
    resume retries them.
    """
    if on_error not in ("raise", "collect"):
        raise SimulationError(
            f'on_error must be "raise" or "collect", got {on_error!r}'
        )
    policy = retry if retry is not None else RetryPolicy()
    if timeout is not None:
        policy = dataclasses.replace(policy, timeout=timeout)

    todo = list(scenarios)
    results: list[ScenarioResult | None] = [None] * len(todo)

    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    if journal is not None:
        for index, value in journal.bind(_sweep_fingerprint(todo), len(todo)).items():
            if isinstance(value, ScenarioResult) and value.ok:
                results[index] = value
    if cache is not None:
        for i, scenario in enumerate(todo):
            if results[i] is None:
                results[i] = cache.get(scenario)

    miss_idx = [i for i, r in enumerate(results) if r is None]

    def _persist(outcome) -> None:
        # Runs in the supervising process as each scenario completes (in
        # completion order), so an interrupted sweep keeps its finished work.
        if not outcome.ok:
            return
        original = miss_idx[outcome.index]
        if cache is not None:
            cache.put(outcome.value)
        if journal is not None:
            journal.record(original, outcome.value)

    outcomes = supervised_map(
        run_scenario,
        [todo[i] for i in miss_idx],
        workers=workers,
        policy=policy,
        start_method=start_method,
        on_complete=_persist,
    )

    failed = []
    for outcome in outcomes:
        original = miss_idx[outcome.index]
        if outcome.ok:
            results[original] = outcome.value
        else:
            failed.append((original, outcome))
            results[original] = ScenarioResult.from_failure(
                todo[original],
                ScenarioFailure(
                    kind=outcome.failure.kind,
                    error_type=outcome.failure.error_type,
                    message=outcome.failure.message,
                    attempts=outcome.attempts,
                    traceback=outcome.failure.traceback,
                ),
            )

    if failed and on_error == "raise":
        index, first = failed[0]
        raise SweepError(
            f"{len(failed)} of {len(todo)} scenario(s) failed; first failure "
            f"({todo[index].describe()}): {first.failure.describe()}",
            failures=tuple(outcome for _, outcome in failed),
        )
    return ResultSet(tuple(results))


#: The only fields a fork variant may change relative to its base: the
#: label and the what-if failure axes.  Everything else (workload, sizing,
#: policy, components) shapes the warm prefix itself, so changing it would
#: make the shared checkpoint a lie.
_FORK_AXES = ("name", "failures", "topology")


def fork_sweep(
    base: Scenario,
    variants: Iterable[Scenario],
    at: float,
    workers: int | None = None,
    cache=None,
    *,
    on_error: str = "raise",
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
    start_method: str | None = None,
    journal=None,
) -> ResultSet:
    """Fork one warm prefix into many what-if branches, then sweep them.

    Simulates ``base`` once up to the event boundary ``at``, snapshots it,
    and runs every variant resumed from that snapshot via
    :func:`run_sweep` — sharing the prefix instead of re-simulating it per
    branch, a multiplier on top of :class:`~repro.scenario.cache.SweepCache`
    for sweeps whose grid only varies the failure axes.  Results are
    **bit-identical** to a cold ``run_sweep`` of the same variants
    (``tests/scenario/test_fork_sweep.py`` pins this).

    Variants may differ from ``base`` only in ``name`` / ``failures`` /
    ``topology``.  The fork boundary is validated up front: every failure
    schedule involved — the base's and each differing variant's — must be
    silent before ``at`` (a variant keeping the base's exact
    failures+topology is a pure resume and is always legal).  Schedules
    that fire earlier would make the shared prefix diverge from a cold
    run; pick an earlier boundary instead.

    ``workers`` / ``cache`` / ``on_error`` / ``retry`` / ``timeout`` /
    ``start_method`` / ``journal`` pass through to :func:`run_sweep`
    unchanged — checkpointed scenarios cache under their snapshot's
    fingerprint and journal like any other scenario.
    """
    from repro.failures import FailureInjector
    from repro.scenario.engine import ClusterSimEngine, resolve_cluster

    at = float(at)
    if at <= 0.0:
        raise SimulationError(f"fork boundary must be > 0, got {at}")
    if base.engine != "cluster-sim":
        raise SimulationError(
            f"fork_sweep snapshots the 'cluster-sim' engine; base uses {base.engine!r}"
        )
    if base.checkpoint is not None:
        raise SimulationError("fork_sweep base already carries a checkpoint; fork from a cold base")

    branches = list(variants)
    if not branches:
        raise SimulationError("fork_sweep needs at least one variant")
    fixed = [
        f.name
        for f in dataclasses.fields(Scenario)
        if f.name not in _FORK_AXES and f.name != "checkpoint"
    ]
    for variant in branches:
        if variant.checkpoint is not None:
            raise SimulationError(
                f"variant {variant.name!r} already carries a checkpoint; "
                "fork_sweep attaches the shared one itself"
            )
        for name in fixed:
            if getattr(variant, name) != getattr(base, name):
                raise SimulationError(
                    f"variant {variant.name!r} changes {name!r}; fork variants may "
                    f"only change {list(_FORK_AXES)} (anything else reshapes the "
                    "shared prefix)"
                )

    # Boundary validation.  A variant keeping the base's exact
    # failures+topology resumes the stored stream verbatim — always legal.
    # Once any variant *diverges*, the shared prefix must be pristine: the
    # base's schedule and every diverging schedule must be silent before
    # the boundary.  Each distinct schedule expands once; the restore
    # re-checks per variant (defense in depth), but failing here names the
    # culprit before any simulation time is spent.
    diverging = [
        v for v in branches if (v.failures, v.topology) != (base.failures, base.topology)
    ]
    if diverging:
        traces, n_servers = resolve_cluster(base)
        horizon = float(traces.horizon())
        checked: set[str] = set()
        for scenario in [base, *diverging]:
            if scenario.failures is None:
                continue
            token = repr((sorted(scenario.failures.items()), scenario.topology))
            if token in checked:
                continue
            checked.add(token)
            injector = FailureInjector.from_spec(
                scenario.failures, topology=scenario.topology
            )
            early = sum(1 for ev in injector.schedule(n_servers, horizon) if ev.time < at)
            if early:
                label = scenario.name or scenario.failures["model"]
                raise SimulationError(
                    f"cannot fork at t={at}: the failure schedule of {label!r} has "
                    f"{early} event(s) before the boundary; fork earlier or adjust "
                    "the schedule"
                )

    warm = ClusterSimEngine().build(base)
    warm.run_until(at)
    snapshot = warm.snapshot()
    return run_sweep(
        [variant.with_checkpoint(snapshot) for variant in branches],
        workers=workers,
        cache=cache,
        on_error=on_error,
        retry=retry,
        timeout=timeout,
        start_method=start_method,
        journal=journal,
    )
