"""Per-figure experiment harnesses and the CLI runner.

Use :func:`repro.experiments.registry.get_experiment` for programmatic
access, or run ``python -m repro.experiments <figure-id>``.
"""

from repro.experiments.base import SCALES, ExperimentResult, check_scale

__all__ = ["SCALES", "ExperimentResult", "check_scale"]
