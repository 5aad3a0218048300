"""The four benchmark workloads, their correctness gates and output checks.

A workload is a set-up (trace synthesis plus the p95 pass, or scenario
declarations) and a pass (the replays a user waits for).  Every seed a
workload uses is its base seed plus the run's ``--seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import traceback
from collections.abc import Callable
from dataclasses import dataclass

from repro.scenario import Scenario, SweepCache, run_sweep
from repro.scenario.engine import ClusterSimEngine
from repro.scenario.results import ScenarioFailure, ScenarioResult
from repro.simulator import cluster_sim
from repro.simulator.metrics import DEFAULT_POLICIES
from repro.simulator.reference import ReferenceClusterSimulator
from repro.simulator.sharded import ShardedEngine
from repro.traces import azure

#: Worker processes for sweeps and shards: two, or fewer on a smaller host.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: The overcommitment levels of Figures 20-22.
GRID_OC = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

#: Gate sizes: a reference replay per policy, and a sharded-vs-flat replay.
GATE_VMS = 2000
GATE_SHARDED_VMS = 5000
GATE_SEED = 7

CHURN_RATE = 0.002


@dataclass(frozen=True)
class Workload:
    name: str
    n_vms: int
    why: str
    #: Base seeds by role; a run adds its ``--seed`` to each.
    seeds: dict
    #: ``(seeds, n_vms) -> scenarios``: everything done before a pass.
    setup: Callable[[dict, int], list[Scenario]]
    #: ``scenarios -> results``: one pass.
    replay: Callable[[list[Scenario]], list[ScenarioResult]]
    #: ``(seeds, n_vms) -> (comparisons made, problems)``, run before timing.
    gate: Callable[[dict, int], tuple[int, list[str]]]


# -- set-up ------------------------------------------------------------------------


def _trace(n_vms: int, seed: int):
    """Synthesize a trace and run the p95 pass, which caches on its records."""
    traces = azure.synthesize_azure_trace(azure.AzureTraceConfig(n_vms=n_vms, seed=seed))
    cluster_sim.vm_class_arrays(traces)
    return traces


def _grid_setup(seeds: dict, n_vms: int) -> list[Scenario]:
    # Declared exactly as experiments/cluster_sweep.py does: the workers
    # synthesize the trace, not this process.
    base = Scenario(name="grid-5k").with_workload("azure", n_vms=n_vms, seed=seeds["trace"])
    return [
        base.with_policy(policy).with_overcommitment(oc)
        for policy in DEFAULT_POLICIES
        for oc in GRID_OC
    ]


def _flat_setup(seeds: dict, n_vms: int) -> list[Scenario]:
    base = Scenario(name="flat-50k").with_traces(_trace(n_vms, seeds["trace"]))
    return [
        base.with_policy("priority").with_overcommitment(0.6),
        base.with_policy("proportional").with_overcommitment(0.3),
    ]


def _sharded_base(traces) -> Scenario:
    return (
        Scenario(name="sharded-50k")
        .with_traces(traces)
        .with_policy("proportional")
        .with_overcommitment(0.3)
        .with_partitions()
    )


def _sharded_setup(seeds: dict, n_vms: int) -> list[Scenario]:
    return [_sharded_base(_trace(n_vms, seeds["trace"]))]


def _churn_regimes(base: Scenario, seed: int) -> list[Scenario]:
    return [
        base.with_topology(racks=8).with_failures(
            "correlated-spot",
            rate=CHURN_RATE,
            seed=seed,
            response="evacuate",
            warning_intervals=3,
            evacuation_budget=4,
        ),
        base.with_failures("spot", rate=CHURN_RATE, seed=seed, response="kill"),
    ]


def _churn_setup(seeds: dict, n_vms: int) -> list[Scenario]:
    base = (
        Scenario(name="churn-20k")
        .with_traces(_trace(n_vms, seeds["trace"]))
        .with_policy("proportional")
        .with_overcommitment(0.3)
    )
    return _churn_regimes(base, seeds["failures"])


# -- passes ------------------------------------------------------------------------


def _sweep(scenarios: list[Scenario]) -> list[ScenarioResult]:
    return list(run_sweep(scenarios, workers=WORKERS, cache=SweepCache(), on_error="collect"))


def _guarded(run: Callable[[Scenario], ScenarioResult], scenario: Scenario) -> ScenarioResult:
    """An in-process run; a raising scenario becomes a failed result."""
    try:
        return run(scenario)
    except Exception as exc:  # counted as a failure, never a crash of the bench
        failure = ScenarioFailure(
            kind="raise",
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
        return ScenarioResult.from_failure(scenario, failure)


def _in_process(scenarios: list[Scenario]) -> list[ScenarioResult]:
    engine = ClusterSimEngine()
    return [_guarded(engine.run, s) for s in scenarios]


def _sharded(scenarios: list[Scenario]) -> list[ScenarioResult]:
    engine = ShardedEngine(workers=WORKERS)
    return [_guarded(engine.run, s) for s in scenarios]


# -- gates -------------------------------------------------------------------------


def _reference_gate(policies: tuple[str, ...]):
    """cluster-sim equals the pinned reference simulator on a tight cluster."""

    def gate(seeds: dict, n_vms: int) -> tuple[int, list[str]]:
        traces = _trace(min(GATE_VMS, n_vms), seeds["gate"])
        n_servers = cluster_sim.servers_for_overcommitment(traces, 0.5)
        problems = []
        for policy in policies:
            config = cluster_sim.ClusterSimConfig(n_servers=n_servers, policy=policy)
            expected = ReferenceClusterSimulator(traces, config).run()
            if cluster_sim.ClusterSimulator(traces, config).run() != expected:
                problems.append(f"gate: {policy} differs from the reference at {len(traces)} VMs")
        return len(policies), problems

    return gate


def _sharded_gate(with_failures: bool):
    """The sharded engine equals cluster-sim on a partitioned scenario."""

    def gate(seeds: dict, n_vms: int) -> tuple[int, list[str]]:
        base = _sharded_base(_trace(min(GATE_SHARDED_VMS, n_vms), seeds["gate"]))
        scenarios = _churn_regimes(base, seeds["gate"]) if with_failures else [base]
        problems = []
        for scenario in scenarios:
            sharded = ShardedEngine(workers=WORKERS).run(scenario).sim
            if sharded != ClusterSimEngine().run(scenario).sim:
                problems.append(f"gate: sharded differs from cluster-sim: {scenario.describe()}")
        return len(scenarios), problems

    return gate


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="grid-5k",
            n_vms=5000,
            why=(
                "The Figures 20-22 grid through run_sweep: many short replays on small "
                "fleets, all four policies, the sweep, cache and supervisor layers."
            ),
            seeds={"trace": 31, "gate": GATE_SEED},
            setup=_grid_setup,
            replay=_sweep,
            gate=_reference_gate(tuple(DEFAULT_POLICIES)),
        ),
        Workload(
            name="flat-50k",
            n_vms=50_000,
            why=(
                "The batched hot loop on 558- and 687-server fleets, in-process, where "
                "per-event placement cost grows with fleet size; no runtime layer."
            ),
            seeds={"trace": 29, "gate": GATE_SEED},
            setup=_flat_setup,
            replay=_in_process,
            gate=_reference_gate(("priority", "proportional")),
        ),
        Workload(
            name="sharded-50k",
            n_vms=50_000,
            why=(
                "The same trace partitioned on the sharded engine: placement on "
                "per-pool candidate sets, a few large supervised tasks, the shard merge."
            ),
            seeds={"trace": 29, "gate": GATE_SEED},
            setup=_sharded_setup,
            replay=_sharded,
            gate=_sharded_gate(with_failures=False),
        ),
        Workload(
            name="churn-20k",
            n_vms=20_000,
            why=(
                "Correlated spot revocations with warned drains, then spot kill-and-requeue: "
                "the only workload on the failure injector's heap loop."
            ),
            seeds={"trace": 29, "failures": 17, "gate": GATE_SEED},
            setup=_churn_setup,
            replay=_in_process,
            gate=_sharded_gate(with_failures=True),
        ),
    )
}


# -- output checks -----------------------------------------------------------------


def trace_events(scenarios: list[Scenario]) -> int:
    """Trace events of one pass: a start and an end per VM per scenario."""
    return sum(2 * _n_vms(s) for s in scenarios)


def _n_vms(scenario: Scenario) -> int:
    if scenario.traces is not None:
        return len(scenario.traces)
    return int(scenario.workload["n_vms"])


def digest(result: ScenarioResult) -> str:
    """Hash of every ``ClusterSimResult`` field (floats by exact repr)."""
    if not result.ok:
        return "failed"
    return hashlib.sha256(repr(dataclasses.asdict(result.sim)).encode()).hexdigest()[:16]


def problems_of(scenario: Scenario, result: ScenarioResult) -> list[str]:
    """What is wrong with one scenario's result (empty when nothing is)."""
    if not result.ok:
        return [f"{scenario.describe()}: {result.error.describe()}"]
    sim = result.sim
    found = []
    if sim.n_vms != _n_vms(scenario):
        found.append(f"n_vms {sim.n_vms} != {_n_vms(scenario)}")
    if not sim.n_placed <= sim.n_vms:
        found.append(f"n_placed {sim.n_placed} > n_vms {sim.n_vms}")
    for name in ("failure_probability", "throughput_loss", "mean_deflation"):
        value = getattr(sim, name)
        if not 0.0 <= value <= 1.0:
            found.append(f"{name} {value} outside [0, 1]")
    return [f"{scenario.describe()}: {p}" for p in found]
