"""Core contribution of the paper: deflation policies, placement, VM model."""

from repro.core.controller import (
    DeflationEvent,
    LocalDeflationController,
    RebalanceReport,
)
from repro.core.deflation import (
    DeflationPolicy,
    DeflationResult,
    DeterministicPolicy,
    PriorityPolicy,
    ProportionalPolicy,
    get_policy,
)
from repro.core.perf_model import (
    ALL_PROFILES,
    FIG3_PROFILES,
    KCOMPILE,
    MEMCACHED,
    MICROSERVICE,
    SPECJBB,
    WEB_MULTITIER,
    PerfProfile,
)
from repro.core.placement import (
    CosineBestFit,
    FirstFit,
    PlacementStrategy,
    ServerSnapshot,
    WorstFit,
    filter_partition,
    partition_for_priority,
)
from repro.core.resources import (
    NUM_RESOURCES,
    RESOURCE_KINDS,
    ResourceVector,
    cosine_fitness,
    sum_vectors,
)
from repro.core.vm import (
    PRIORITY_LEVELS,
    VMAllocation,
    VMClass,
    VMSpec,
    on_demand_spec,
    priority_from_p95,
)

__all__ = [
    "DeflationEvent",
    "LocalDeflationController",
    "RebalanceReport",
    "DeflationPolicy",
    "DeflationResult",
    "DeterministicPolicy",
    "PriorityPolicy",
    "ProportionalPolicy",
    "get_policy",
    "ALL_PROFILES",
    "FIG3_PROFILES",
    "KCOMPILE",
    "MEMCACHED",
    "MICROSERVICE",
    "SPECJBB",
    "WEB_MULTITIER",
    "PerfProfile",
    "CosineBestFit",
    "FirstFit",
    "PlacementStrategy",
    "ServerSnapshot",
    "WorstFit",
    "filter_partition",
    "partition_for_priority",
    "NUM_RESOURCES",
    "RESOURCE_KINDS",
    "ResourceVector",
    "cosine_fitness",
    "sum_vectors",
    "PRIORITY_LEVELS",
    "VMAllocation",
    "VMClass",
    "VMSpec",
    "on_demand_spec",
    "priority_from_p95",
]
