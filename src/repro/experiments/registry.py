"""Experiment registry: figure id -> runner.

Each figure module registers its ``run`` function on the unified component
registry (``@register_value("experiment", "figXX")``); importing this module
pulls them all in, so ``repro.registry.names("experiment")`` lists every
figure id and :func:`get_experiment` looks one up.  New experiments become
runnable by ``python -m repro.experiments`` just by registering under kind
``experiment``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ReproError, UnknownComponentError
from repro.experiments import (  # noqa: F401  (imports trigger registration)
    churn,
    fig03_app_perf,
    fig05_cpu_feasibility,
    fig06_by_class,
    fig07_by_size,
    fig08_by_peak,
    fig09_memory,
    fig10_membw,
    fig11_disk,
    fig12_network,
    fig14_specjbb_memory,
    fig16_wiki_rt,
    fig17_wiki_served,
    fig18_socialnet,
    fig19_lb,
    fig20_failure,
    fig21_throughput,
    fig22_revenue,
    portfolio,
)
from repro.experiments.base import ExperimentResult
from repro.registry import resolve


def get_experiment(figure_id: str) -> Callable[[str], ExperimentResult]:
    try:
        return resolve("experiment", figure_id)
    except UnknownComponentError as exc:
        raise ReproError(str(exc)) from None
