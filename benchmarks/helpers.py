"""Shared helpers for the figure benchmarks.

Each ``bench_figXX`` file regenerates one paper figure under
pytest-benchmark and prints the reproduced series, so
``pytest benchmarks/ --benchmark-only`` both times the pipelines and emits
the same rows the paper reports.

Heavier experiments cache intermediate artifacts (traces, sweeps) via
``functools.lru_cache``; benchmarks clear those caches in setup so each
round measures the real pipeline, not a dictionary lookup.
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment


def run_and_print(figure_id: str, scale: str = "small"):
    """Run one experiment and print its table (used inside benchmarks)."""
    result = get_experiment(figure_id)(scale)
    print()
    result.print_table()
    return result


def clear_experiment_caches() -> None:
    """Drop all cached traces/sweeps so a benchmark round is end-to-end.

    Covers every memo layer the pipeline grew: the per-figure trace caches,
    the scenario-level :class:`~repro.scenario.cache.SweepCache` behind
    figures 20-22, and the workload-resolution cache inside the scenario
    engine (which would otherwise hand later rounds a pre-synthesized
    trace).  A disk-backed sweep cache (``REPRO_SWEEP_CACHE_DIR``) is
    detached rather than wiped — benchmarks must measure cold runs, but
    never destroy a store the user asked to persist.
    """
    from repro.experiments import alibaba_feasibility, azure_feasibility, cluster_sweep
    from repro.scenario import engine as scenario_engine

    azure_feasibility.feasibility_trace.cache_clear()
    alibaba_feasibility.container_trace.cache_clear()
    cluster_sweep.cluster_sweep.cache_clear()
    scenario_engine._cached_workload.cache_clear()
