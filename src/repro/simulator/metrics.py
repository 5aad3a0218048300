"""Derived metrics for Figures 20–22.

The figures read one (policy x overcommitment) grid, returned by
:func:`repro.experiments.cluster_sweep.cluster_sweep` as a
:class:`~repro.scenario.ResultSet`.  Each run replays the *same* trace
against a smaller cluster, exactly the paper's method: "we first find the
minimum cluster size capable of running all VMs without any preemptions
or admission-controlled rejections.  We then vary and increase the
overcommitment by reducing the number of servers and use the same
VM-trace throughout."
"""

from __future__ import annotations

from repro.errors import SimulationError

#: Policies compared in Figures 20 and 21 (preemption is the baseline).
DEFAULT_POLICIES: tuple[str, ...] = (
    "proportional",
    "priority",
    "deterministic",
    "preemption",
)


def revenue_increase(
    results, pricing: str, baseline_pricing: str = "static"
) -> list[tuple[float, float]]:
    """(overcommitment %, revenue-per-server increase %) — Figure 22.

    ``results`` are one policy's runs in ascending overcommitment order,
    e.g. ``sweep.filter(policy="priority")``.  All pricing schemes are
    normalized against one *common* baseline: the ``baseline_pricing``
    revenue at the lowest overcommitment level.  This matches the paper's
    presentation, where priority-based pricing sits ~2x above static at
    every level (higher priority VMs simply pay more) while
    allocation-based pricing stays flat (deflation discounts offset the
    density gain).
    """
    series = results.series("overcommitment", "revenue_per_server")
    if not series:
        raise SimulationError("no results to normalize (is the policy in the sweep?)")
    first = series[0][1]
    base = first.get(baseline_pricing)
    if base is None:
        raise SimulationError(f"unknown pricing model {baseline_pricing!r}")
    if base <= 0:
        raise SimulationError("baseline revenue is zero; cannot normalize")
    if pricing not in first:
        raise SimulationError(f"unknown pricing model {pricing!r}")
    return [(100 * oc, 100 * (rps[pricing] / base - 1.0)) for oc, rps in series]
