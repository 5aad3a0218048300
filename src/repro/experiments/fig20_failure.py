"""Figure 20: failure probability vs. cluster overcommitment.

Deflation nearly eliminates reclamation failures: <1% at 70% overcommitment
for proportional deflation vs. ~35% preemption probability for traditional
preemptible VMs.  Priority-based and deterministic deflation fall in
between (their priority floors cap how much can be reclaimed).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, check_scale
from repro.experiments.cluster_sweep import cluster_sweep
from repro.simulator.metrics import DEFAULT_POLICIES
from repro.registry import register_value


@register_value("experiment", "fig20")
def run(scale: str = "small", engine: str | None = None) -> ExperimentResult:
    """Regenerate the figure; ``engine="sharded"`` runs the partitioned
    variant of the grid on the scale-out engine (see docs/engines.md)."""
    check_scale(scale)
    sweep = cluster_sweep(scale, partitioned=engine == "sharded", engine=engine)
    result = ExperimentResult(
        figure_id="fig20",
        title="Failure probability vs cluster overcommitment",
        columns=["overcommit_pct"] + [f"{p}_failure" for p in DEFAULT_POLICIES],
        notes="paper: <1% at 70% OC for proportional vs ~35% for preemptible",
    )
    series = {
        p: {
            100 * oc: v
            for oc, v in sweep.filter(policy=p).series("overcommitment", "failure_probability")
        }
        for p in DEFAULT_POLICIES
    }
    levels = sorted(next(iter(series.values())).keys())
    for oc in levels:
        result.add_row(
            overcommit_pct=oc,
            **{f"{p}_failure": series[p][oc] for p in DEFAULT_POLICIES},
        )
    return result
