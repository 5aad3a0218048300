"""Shared overcommitment sweep for Figures 20-22.

One trace, one (policy x overcommitment) grid, memoized through the
scenario-level :class:`~repro.scenario.cache.SweepCache` so the three
figures (failure probability, throughput, revenue) and their benchmarks
reuse identical runs — as in the paper, which evaluates all three metrics
from the same simulations.

The grid is declared with workload specs (``{"source": "azure", ...}``)
rather than pre-built traces, so every scenario serializes and the cache
keys capture the full provenance (trace size, seed, policy, OC target,
partitioning).  By default the cache lives in memory for the process; set
``REPRO_SWEEP_CACHE_DIR`` to persist sweep results on disk across runs —
``python -m repro.experiments fig20 fig21 fig22`` then simulates the grid
once, ever.
"""

from __future__ import annotations

import os

from repro.errors import SimulationError
from repro.experiments.base import check_scale
from repro.scenario import ResultSet, Scenario, SweepCache, run_sweep
from repro.simulator.metrics import DEFAULT_POLICIES

OC_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
OC_LEVELS_SMALL = (0.0, 0.2, 0.4, 0.6, 0.7)

_SCALE_N_VMS = {"small": 500, "full": 2500}

#: Process-wide sweep memo; on-disk when REPRO_SWEEP_CACHE_DIR is set.
SWEEP_CACHE = SweepCache(path=os.environ.get("REPRO_SWEEP_CACHE_DIR") or None)


def cluster_sweep(
    scale: str,
    partitioned: bool = False,
    seed: int = 31,
    workers: int | None = None,
    engine: str | None = None,
) -> ResultSet:
    """The (policy x OC) grid, built through the Scenario pipeline.

    Results come back in grid order (policy-major, ascending OC), so
    ``cluster_sweep(scale).filter(policy=p)`` is one figure series.

    Runs are served from :data:`SWEEP_CACHE`; only cache misses simulate.
    ``workers`` > 1 fans misses out over supervised worker processes
    (``docs/robustness.md``): a crashed or hung worker costs one retried
    scenario, not the grid, and each finished miss is stored back to the
    cache *as it completes*, so with ``REPRO_SWEEP_CACHE_DIR`` set an
    interrupted long sweep resumes from what it already simulated.
    Results are bit-identical for any worker count and for warm-vs-cold
    caches, so ``workers`` is deliberately *not* part of the cache key —
    it only controls how a miss is computed.

    ``engine`` selects the execution backend by registered name (``None``
    keeps the scenario default, ``cluster-sim``).  The ``sharded`` engine
    shards along priority-pool boundaries, so it requires
    ``partitioned=True`` — on which it is bit-identical to ``cluster-sim``
    (see ``docs/engines.md``).  Note that a non-default engine is part of
    each scenario's cache key.
    """
    check_scale(scale)
    if engine == "sharded" and not partitioned:
        raise SimulationError(
            "the sharded engine requires partitioned placement; pass "
            "partitioned=True (the grid then matches cluster-sim's "
            "partitioned grid, not the flat default)"
        )
    levels = OC_LEVELS_SMALL if scale == "small" else OC_LEVELS
    base = Scenario(name="cluster-sweep").with_workload(
        "azure", n_vms=_SCALE_N_VMS[scale], seed=seed
    )
    if partitioned:
        base = base.with_partitions()
    if engine is not None:
        base = base.with_engine(engine)
    scenarios = [
        base.with_policy(policy).with_overcommitment(oc)
        for policy in DEFAULT_POLICIES
        for oc in levels
    ]
    return run_sweep(scenarios, workers=workers, cache=SWEEP_CACHE)


def _reset_sweep_cache() -> None:
    """Give the next sweep an empty cache without touching persistent state.

    In-memory caches are simply cleared.  Disk-backed caches (the user set
    ``REPRO_SWEEP_CACHE_DIR`` precisely to keep results across runs) are
    *detached* instead — a fresh in-memory cache takes their place for the
    rest of the process — so benchmark cold-runs never destroy the
    persistent store they were asked to preserve.
    """
    global SWEEP_CACHE
    if SWEEP_CACHE.path is None:
        SWEEP_CACHE.clear()
    else:
        SWEEP_CACHE = SweepCache()


#: Kept API-compatible with the old ``lru_cache`` wrapper (benchmarks call it).
cluster_sweep.cache_clear = _reset_sweep_cache
