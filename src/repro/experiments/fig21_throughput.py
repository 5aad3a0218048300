"""Figure 21: throughput decrease of deflatable VMs vs. overcommitment.

Negligible below 40% overcommitment, ~1% at 50%, <5% at 80% — and adding
priorities cuts the loss by an order of magnitude (high-utilization VMs are
deflated less).  A partitioned variant shows cluster partitioning does not
significantly change the picture.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, check_scale
from repro.experiments.cluster_sweep import cluster_sweep
from repro.registry import register_value

_POLICIES = ("proportional", "priority", "deterministic")


@register_value("experiment", "fig21")
def run(scale: str = "small", engine: str | None = None) -> ExperimentResult:
    """Regenerate the figure; ``engine`` moves the *partitioned* comparison
    series onto another backend (e.g. ``"sharded"``, which only accepts
    partitioned scenarios — see docs/engines.md).  The flat main series
    always runs on the default engine, so the figure's flat-vs-partitioned
    contrast stays meaningful — and since backends are bit-identical, the
    printed table is the same for every engine choice.
    """
    check_scale(scale)
    sweep = cluster_sweep(scale)
    part = cluster_sweep(scale, partitioned=True, engine=engine)
    result = ExperimentResult(
        figure_id="fig21",
        title="Throughput decrease of deflatable VMs vs overcommitment",
        columns=["overcommit_pct"]
        + [f"{p}_loss" for p in _POLICIES]
        + ["priority_partitioned_loss"],
        notes="paper: ~0 below 40% OC, ~1% at 50%, <5% at 80%; priorities ~10x better",
    )

    def losses(results, policy):
        pairs = results.filter(policy=policy).series("overcommitment", "throughput_loss")
        return {100 * oc: v for oc, v in pairs}

    series = {p: losses(sweep, p) for p in _POLICIES}
    part_series = losses(part, "priority")
    levels = sorted(next(iter(series.values())).keys())
    for oc in levels:
        result.add_row(
            overcommit_pct=oc,
            **{f"{p}_loss": series[p][oc] for p in _POLICIES},
            priority_partitioned_loss=part_series.get(oc, float("nan")),
        )
    return result
