"""Figure 22: cloud revenue increase from deflatable VMs vs. overcommitment.

Static pricing (0.2x on-demand) gains revenue as overcommitment packs more
deflatable VMs per server; priority-based differentiated pricing roughly
doubles that (higher-priority VMs pay more); allocation-based pricing stays
nearly flat — deflated VMs pay proportionally less, cancelling the density
gain.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, check_scale
from repro.experiments.cluster_sweep import cluster_sweep
from repro.registry import register_value
from repro.simulator.metrics import revenue_increase

_PRICINGS = ("static", "priority", "allocation")


@register_value("experiment", "fig22")
def run(scale: str = "small", engine: str | None = None) -> ExperimentResult:
    """Regenerate the figure; ``engine="sharded"`` runs the partitioned
    variant of the grid on the scale-out engine (see docs/engines.md)."""
    check_scale(scale)
    sweep = cluster_sweep(scale, partitioned=engine == "sharded", engine=engine)
    priority = sweep.filter(policy="priority")
    result = ExperimentResult(
        figure_id="fig22",
        title="Revenue-per-server increase vs overcommitment (priority deflation)",
        columns=["overcommit_pct"] + [f"{p}_increase_pct" for p in _PRICINGS],
        notes="paper: priority pricing ~2x static; allocation-based ~flat",
    )
    series = {
        p: dict(revenue_increase(priority, p, baseline_pricing="static"))
        for p in _PRICINGS
    }
    levels = sorted(next(iter(series.values())).keys())
    for oc in levels:
        result.add_row(
            overcommit_pct=oc,
            **{f"{p}_increase_pct": series[p][oc] for p in _PRICINGS},
        )
    return result
