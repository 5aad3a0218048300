"""Seeded random scenario generator for the randomized equivalence layer.

The property suites (``tests/test_randomized_equivalence.py``) draw
scenarios from :func:`random_scenario` and assert that every execution
mode returns the same bits.  All randomness flows from one passed
``np.random.Generator``, so a run is a pure function of its seed: CI
replays the fixed default, ``--repro-fuzz-seed`` probes fresh ground, and
any failing scenario is reproducible from ``(seed, index)`` alone —
the failure message names both (see docs/testing.md).

Generated scenarios deliberately stay small (tight clusters, <200 VMs):
the layer's value is breadth across the configuration space — every
policy x sizing mode x partitioning x collector set x failure regime —
not trace length.
"""

from __future__ import annotations

import numpy as np

from repro.scenario import Scenario

POLICIES = ("proportional", "priority", "deterministic", "preemption")
ADMISSIONS = ("deflation-aware", "rigid")
SCORERS = ("cosine", "most-available", "least-available")
#: Only snapshottable + mergeable collectors: generated scenarios must be
#: able to ride every execution mode under test.
COLLECTORS = ("event-counts", "rejection-log", "failure-log")


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def random_scenario(rng: np.random.Generator, index: int = 0) -> Scenario:
    """Draw one valid scenario; consumes a bounded number of rng draws."""
    scenario = (
        Scenario(name=f"fuzz-{index}")
        .with_workload("azure", n_vms=int(rng.integers(60, 181)), seed=int(rng.integers(1, 2**16)))
        .with_policy(_pick(rng, POLICIES))
        .with_scorer(_pick(rng, SCORERS))
    )
    # The preemption baseline carries its own fixed admission rule and
    # rejects a configured controller; draw regardless so the stream of
    # draws (and thus every later scenario) is policy-independent.
    admission = _pick(rng, ADMISSIONS)
    if scenario.policy != "preemption":
        scenario = scenario.with_admission(admission)

    # Sizing: the paper's overcommitment-driven shrink, or an explicit count.
    if rng.random() < 0.25:
        scenario = scenario.with_servers(int(rng.integers(10, 25)))
    else:
        scenario = scenario.with_overcommitment(float(_pick(rng, (0.0, 0.2, 0.4, 0.6))))

    if rng.random() < 0.5:
        scenario = scenario.with_partitions(int(rng.integers(2, 5)))

    n_collectors = int(rng.integers(0, len(COLLECTORS) + 1))
    if n_collectors:
        chosen = sorted(rng.choice(len(COLLECTORS), size=n_collectors, replace=False).tolist())
        scenario = scenario.with_collectors(*(COLLECTORS[i] for i in chosen))

    return _with_random_failures(rng, scenario)


def _with_random_failures(rng: np.random.Generator, scenario: Scenario) -> Scenario:
    roll = rng.random()
    seed = int(rng.integers(1, 2**16))
    rate = float(rng.uniform(0.002, 0.006))
    if roll < 0.22:
        return scenario  # failure-free
    if roll < 0.40:
        spec = {"model": "spot", "rate": rate, "seed": seed, "response": "evacuate"}
        return scenario.with_failures(**_maybe_warned(rng, spec))
    if roll < 0.55:
        return scenario.with_failures(
            "spot",
            rate=rate,
            seed=seed,
            response="kill",
            restart_delay=int(rng.integers(1, 4)),
        )
    if roll < 0.70:
        spec = {"model": "correlated-spot", "rate": rate, "seed": seed, "response": "evacuate"}
        return scenario.with_topology(racks=int(rng.integers(3, 7))).with_failures(
            **_maybe_warned(rng, spec)
        )
    if roll < 0.85:
        return scenario.with_failures(
            "elastic-pool",
            rate=rate,
            arrival_rate=float(rng.uniform(0.01, 0.03)),
            seed=seed,
        )
    return scenario.with_failures(
        "capacity-dips",
        rate=rate,
        depth=float(rng.uniform(0.3, 0.7)),
        mean_duration=float(rng.uniform(6.0, 18.0)),
        seed=seed,
    )


def _maybe_warned(rng: np.random.Generator, spec: dict) -> dict:
    """Sometimes add the warning-time drain knobs to an evacuate spec."""
    if rng.random() < 0.35:
        spec = dict(spec, warning_intervals=int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            spec["evacuation_budget"] = int(rng.integers(1, 4))
    return spec


def waterfill_stress_scenario(rng: np.random.Generator, index: int = 0) -> Scenario:
    """Scenario biased toward the water-fill solver's corner regimes.

    The closed-form breakpoint solver (docs/performance.md, "Deliberate
    numerical changes") has distinct paths for tied breakpoints, saturated
    pools and degenerate active sets; these scenarios push replays into
    them: deep overcommitment so solves run cap-adjacent, high QoS floors
    so pools are nearly exhausted (cap-saturated, with identical per-class
    VM shapes producing tied breakpoints), and occasional tiny clusters
    whose servers host only one or two deflatable VMs.  Failure-free and
    observer-free by design: those are the replays whose departures the
    driver batches, in every mode, and this generator exists to hammer
    exactly that path against the strictly per-event reference simulator.
    """
    tiny = rng.random() < 0.3
    n_vms = int(rng.integers(8, 26)) if tiny else int(rng.integers(60, 181))
    scenario = (
        Scenario(name=f"waterfill-stress-{index}")
        .with_workload("azure", n_vms=n_vms, seed=int(rng.integers(1, 2**16)))
        .with_policy(_pick(rng, ("priority", "priority-eq3", "proportional")))
        .with_scorer(_pick(rng, SCORERS))
        .with_admission(_pick(rng, ADMISSIONS))
        # Deep overcommitment keeps servers under pressure, so nearly every
        # departure triggers a real solve near the pool boundary.
        .with_overcommitment(float(_pick(rng, (0.4, 0.6, 0.8))))
    )
    if rng.random() < 0.5:
        # High floors shrink every deflatable pool toward zero width.
        scenario = scenario.with_min_fraction(float(_pick(rng, (0.5, 0.75, 0.9))))
    if rng.random() < 0.5:
        # Partitioned arm: overcommitment sizing above can shrink the
        # cluster below the pool count (which never shards), so pin an
        # explicit cluster with room for one server per pool while staying
        # small enough to keep real deflation pressure.
        scenario = scenario.with_servers(int(rng.integers(8, 16))).with_partitions(
            int(rng.integers(2, 5))
        )
    return scenario


def waterfill_stress_batch(seed: int, count: int, start: int = 0) -> list[Scenario]:
    """Deterministic batch of water-fill-stressing scenarios (same contract
    as :func:`scenario_batch`: reproduce one failure from (seed, index))."""
    rng = np.random.default_rng(seed)
    batch = [waterfill_stress_scenario(rng, index=i) for i in range(start + count)]
    return batch[start:]


def scenario_batch(seed: int, count: int, start: int = 0) -> list[Scenario]:
    """The deterministic batch a property suite iterates.

    One generator draws the whole batch, so scenario ``i`` depends on the
    seed and every draw before it — reproduce a single failure by
    regenerating the batch with the reported seed and indexing in.
    """
    rng = np.random.default_rng(seed)
    batch = [random_scenario(rng, index=i) for i in range(start + count)]
    return batch[start:]
