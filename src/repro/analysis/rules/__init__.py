"""The stock rule pack; importing this package registers every rule.

Mirrors the registry convention (docs/registry.md "Registration is
import-driven"): a new rule module must be imported here to be
discoverable under kind ``lint``.
"""

from repro.analysis.rules import (  # noqa: F401  (imports trigger registration)
    conformance,
    dead_component,
    determinism,
    docs_links,
    golden,
    pool_discipline,
    registry_rules,
    rng_taint,
    scenario_schema,
    worker_purity,
)
