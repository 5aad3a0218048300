"""Trace-driven cluster replay and the Figure 20–22 metrics.

The cluster replay's pluggable pieces (admission controllers, placement
scorers, metrics collectors) live in :mod:`repro.simulator.components` and
are resolved by name through :mod:`repro.registry`.
"""

from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimResult,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.simulator.components import (
    AdmissionController,
    MetricsCollector,
    PlacementScorer,
)
from repro.simulator.metrics import DEFAULT_POLICIES

__all__ = [
    "AdmissionController",
    "MetricsCollector",
    "PlacementScorer",
    "ClusterSimConfig",
    "ClusterSimResult",
    "ClusterSimulator",
    "servers_for_overcommitment",
    "DEFAULT_POLICIES",
]
