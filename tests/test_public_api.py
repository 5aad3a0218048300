"""Sanity checks on the package's public surface."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.hypervisor",
            "repro.cluster",
            "repro.simulator",
            "repro.traces",
            "repro.feasibility",
            "repro.queueing",
            "repro.microsim",
            "repro.apps",
            "repro.loadbalancer",
            "repro.pricing",
            "repro.experiments",
            "repro.scenario",
        ],
    )
    def test_subpackages_import_clean(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None

    def test_exception_hierarchy(self):
        from repro.errors import (
            AdmissionRejected,
            DeflationError,
            PlacementError,
            RegistryError,
            ReproError,
            UnknownComponentError,
        )

        assert issubclass(DeflationError, ReproError)
        assert issubclass(AdmissionRejected, PlacementError)
        assert issubclass(PlacementError, ReproError)
        assert issubclass(UnknownComponentError, RegistryError)
        assert issubclass(RegistryError, ReproError)

    def test_scenario_api_exported(self):
        assert repro.Scenario is not None
        assert callable(repro.run_sweep) and callable(repro.run_scenario)


class TestLegacyRegistryShims:
    """``PRICING_MODELS``, the one pre-registry dictionary left, stays a mapping."""

    def test_pricing_models_shim(self):
        from repro.pricing.models import PRICING_MODELS, get_pricing

        assert set(PRICING_MODELS) >= {"static", "priority", "allocation"}
        assert get_pricing("static") is PRICING_MODELS["static"]
        for name, model in PRICING_MODELS.items():
            assert model.rate(0.5, 1.0) > 0

    def test_shims_are_views_over_one_registry(self):
        from repro.pricing.models import PRICING_MODELS
        from repro.registry import names, resolve

        assert PRICING_MODELS["priority"] is resolve("pricing", "priority")
        assert list(PRICING_MODELS) == names("pricing")
