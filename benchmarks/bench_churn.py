"""Churn-path benchmark: what failure injection costs the replay.

The churn machinery (correlated bursts, warning-time drains, server
arrivals) feeds the replay driver a heap of failure events and turns off
batched departures, so its cost must be tracked separately.  This
module times one trace under four regimes against the failure-free
baseline replay of the same scenario:

* ``failure-free`` — the golden batched replay (the reference cost);
* ``spot`` — PR 3's independent instant-evacuation path;
* ``correlated+warning`` — rack bursts with a budgeted drain (ticks,
  deadlines, retries: the heaviest new path);
* ``elastic`` — arrivals growing the server arrays mid-run.

Two entry points:

* pytest-benchmark tests (``pytest benchmarks/bench_churn.py
  --benchmark-only``) at a CI-friendly 2k VMs;
* :func:`run_churn_benchmark`, used by ``benchmarks/run_bench.py`` to
  produce the ``churn`` section of ``BENCH_cluster.json`` (5k VMs with
  ``--quick``, 20k in the full run).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.scenario.scenario import Scenario
from repro.simulator.cluster_sim import ClusterSimConfig, ClusterSimulator
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

#: Default trace size for the full run.
CHURN_N_VMS = 20_000
CHURN_SEED = 29

CHURN_OC = 0.3
CHURN_POLICY = "proportional"
CHURN_RATE = 0.002
CHURN_FAILURE_SEED = 17


def churn_scenarios(n_vms: int = CHURN_N_VMS, seed: int = CHURN_SEED) -> dict[str, Scenario]:
    """The timed regimes, sharing one pre-synthesized trace."""
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=n_vms, seed=seed))
    # Warm the shared per-record p95 cache so no timed case pays it first.
    ClusterSimulator(traces, ClusterSimConfig(n_servers=1, policy="preemption"))
    base = (
        Scenario(name="bench-churn")
        .with_traces(traces)
        .with_policy(CHURN_POLICY)
        .with_overcommitment(CHURN_OC)
    )
    return {
        "failure-free": base,
        "spot": base.with_failures(
            "spot", rate=CHURN_RATE, seed=CHURN_FAILURE_SEED, response="evacuate"
        ),
        "correlated+warning": base.with_topology(racks=8).with_failures(
            "correlated-spot",
            rate=CHURN_RATE,
            seed=CHURN_FAILURE_SEED,
            response="evacuate",
            warning_intervals=3,
            evacuation_budget=4,
        ),
        "elastic": base.with_failures(
            "elastic-pool",
            rate=CHURN_RATE,
            arrival_rate=0.01,
            seed=CHURN_FAILURE_SEED,
            response="evacuate",
        ),
    }


def run_churn_benchmark(
    n_vms: int = CHURN_N_VMS,
    seed: int = CHURN_SEED,
    rounds: int = 1,
    progress=None,
) -> dict:
    """Time the churn regimes; return the ``churn`` report section."""
    cases = churn_scenarios(n_vms, seed)
    times: dict[str, list[float]] = {label: [] for label in cases}
    # Rounds interleave across cases so shared-machine noise skews every
    # label equally instead of poisoning one.
    for _ in range(rounds):
        for label, scenario in cases.items():
            t0 = time.perf_counter()
            scenario.run()
            times[label].append(time.perf_counter() - t0)
    medians = {label: statistics.median(ts) for label, ts in times.items()}
    if progress is not None:
        for label, s in medians.items():
            progress(label, s)
    baseline = medians["failure-free"]
    report = {
        "n_vms": n_vms,
        "seed": seed,
        "policy": CHURN_POLICY,
        "overcommitment": CHURN_OC,
        "rate": CHURN_RATE,
        "rounds": rounds,
        "cases": {label: round(s, 4) for label, s in medians.items()},
    }
    for label, s in medians.items():
        if label != "failure-free" and baseline > 0:
            report[f"overhead_{label}"] = round(s / baseline, 3)
    return report


# -- pytest-benchmark entry points ---------------------------------------------------


@pytest.fixture(scope="module")
def scenarios_2k():
    return churn_scenarios(n_vms=2000, seed=CHURN_SEED)


def test_churn_replay_benchmark(benchmark, scenarios_2k):
    result = benchmark.pedantic(
        lambda: scenarios_2k["correlated+warning"].run(), rounds=1
    )
    assert result.collected["failure-injection"]["revocations"] > 0


def test_churn_paths_stay_deterministic(scenarios_2k):
    """Cheap guard: the timed scenarios are reproducible run to run."""
    scenario = scenarios_2k["correlated+warning"]
    assert scenario.run().sim == scenario.run().sim
