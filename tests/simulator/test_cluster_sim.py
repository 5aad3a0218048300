"""Tests for the trace-driven cluster simulator."""

import math

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.errors import SimulationError
from repro.failures import FailureInjector
from repro.registry import register, unregister
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.simulator.components import DeflationAwareAdmission
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace
from repro.traces.schema import VMTraceRecord, VMTraceSet


def flat_record(vm_id, util, cores, start, length, cls=VMClass.INTERACTIVE, mem=8192):
    return VMTraceRecord(
        vm_id=vm_id,
        vm_class=cls,
        cores=cores,
        memory_mb=mem,
        start_interval=start,
        cpu_util=np.full(length, util),
    )


@pytest.fixture(scope="module")
def azure_trace():
    return synthesize_azure_trace(AzureTraceConfig(n_vms=300, seed=12))


class TestConfigValidation:
    def test_bad_server_count(self):
        with pytest.raises(SimulationError):
            ClusterSimConfig(n_servers=0)

    def test_bad_policy(self):
        with pytest.raises(Exception):
            ClusterSimConfig(n_servers=1, policy="nope")

    def test_bad_min_fraction(self):
        with pytest.raises(SimulationError):
            ClusterSimConfig(n_servers=1, min_fraction=1.5)

    def test_bad_component_names(self):
        with pytest.raises(Exception, match="available"):
            ClusterSimConfig(n_servers=1, admission="bouncer")
        with pytest.raises(Exception, match="available"):
            ClusterSimConfig(n_servers=1, scorer="psychic")
        with pytest.raises(Exception, match="available"):
            ClusterSimConfig(n_servers=1, collectors=("nope",))

    def test_preemption_rejects_custom_admission(self):
        # The baseline has its own fixed admission rule; configuring a
        # controller that would be silently ignored must fail loudly.
        with pytest.raises(SimulationError, match="preemption baseline"):
            ClusterSimConfig(n_servers=1, policy="preemption", admission="rigid")

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(VMTraceSet([]), ClusterSimConfig(n_servers=1))

    @pytest.mark.parametrize("field", ["cores_per_server", "memory_per_server_mb"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_impossible_server_shape_rejected(self, field, value):
        # Such shapes used to replay "ok" with every VM rejected.
        with pytest.raises(SimulationError, match=field):
            ClusterSimConfig(n_servers=1, **{field: value})


class TestSmallScenarios:
    def test_no_pressure_no_deflation(self):
        """Two small VMs on a big server: never deflated, no losses."""
        traces = VMTraceSet(
            [
                flat_record("a", 0.5, cores=4, start=0, length=10),
                flat_record("b", 0.5, cores=4, start=2, length=10),
            ]
        )
        result = ClusterSimulator(traces, ClusterSimConfig(n_servers=1)).run()
        assert result.throughput_loss == 0.0
        assert result.mean_deflation == 0.0
        assert result.failure_probability == 0.0
        assert result.n_placed == 2

    def test_pressure_causes_deflation_and_loss(self):
        """Two 32-core VMs at 100% usage on one 48-core server: both are
        deflated to 24 cores, each losing 25% of demanded work."""
        traces = VMTraceSet(
            [
                flat_record("a", 1.0, cores=32, start=0, length=10, mem=1024),
                flat_record("b", 1.0, cores=32, start=0, length=10, mem=1024),
            ]
        )
        cfg = ClusterSimConfig(n_servers=1, cores_per_server=48)
        result = ClusterSimulator(traces, cfg).run()
        assert result.mean_deflation == pytest.approx(0.25, abs=0.01)
        assert result.throughput_loss == pytest.approx(0.25, abs=0.01)
        assert result.overcommitment == pytest.approx(64 / 48 - 1, abs=0.01)

    def test_deflation_only_under_usage_costs_nothing(self):
        """Idle VMs deflate for free: usage below the deflated allocation."""
        traces = VMTraceSet(
            [
                flat_record("a", 0.1, cores=32, start=0, length=10, mem=1024),
                flat_record("b", 0.1, cores=32, start=0, length=10, mem=1024),
            ]
        )
        cfg = ClusterSimConfig(n_servers=1, cores_per_server=48)
        result = ClusterSimulator(traces, cfg).run()
        assert result.mean_deflation > 0.2
        assert result.throughput_loss == 0.0

    def test_departure_reinflates(self):
        """When the colocated VM leaves, allocation returns to 100%."""
        traces = VMTraceSet(
            [
                flat_record("a", 1.0, cores=32, start=0, length=20, mem=1024),
                flat_record("b", 1.0, cores=32, start=0, length=10, mem=1024),
            ]
        )
        cfg = ClusterSimConfig(n_servers=1, cores_per_server=48)
        sim = ClusterSimulator(traces, cfg)
        result = sim.run()
        # VM a: deflated (0.75) for 10 intervals, full for the next 10.
        series = sim._allocation_series(0)
        assert series[:10].mean() == pytest.approx(0.75, abs=0.02)
        assert series[10:].mean() == pytest.approx(1.0, abs=1e-6)
        del result

    def test_on_demand_never_deflated(self):
        traces = VMTraceSet(
            [
                flat_record("od", 1.0, cores=32, start=0, length=10,
                            cls=VMClass.DELAY_INSENSITIVE, mem=1024),
                flat_record("defl", 1.0, cores=32, start=0, length=10, mem=1024),
            ]
        )
        cfg = ClusterSimConfig(n_servers=1, cores_per_server=48)
        sim = ClusterSimulator(traces, cfg)
        sim.run()
        # All 16 cores of pressure landed on the deflatable VM.
        series = sim._allocation_series(1)
        assert series.mean() == pytest.approx(0.5, abs=0.01)

    def test_preemption_baseline_preempts_lowest_priority(self):
        # Low-usage (=> low priority) deflatable VM gets preempted when the
        # on-demand VM arrives into a full server.
        traces = VMTraceSet(
            [
                flat_record("defl", 0.1, cores=32, start=0, length=20, mem=1024),
                flat_record("od", 0.9, cores=32, start=5, length=10,
                            cls=VMClass.DELAY_INSENSITIVE, mem=1024),
            ]
        )
        cfg = ClusterSimConfig(n_servers=1, cores_per_server=48, policy="preemption")
        sim = ClusterSimulator(traces, cfg)
        result = sim.run()
        assert result.n_preempted == 1
        assert result.failure_probability == 1.0  # the only deflatable VM

    def test_rejection_when_no_room_even_deflated(self):
        traces = VMTraceSet(
            [
                flat_record("od1", 1.0, cores=40, start=0, length=10,
                            cls=VMClass.DELAY_INSENSITIVE, mem=1024),
                flat_record("od2", 1.0, cores=40, start=0, length=10,
                            cls=VMClass.DELAY_INSENSITIVE, mem=1024),
            ]
        )
        cfg = ClusterSimConfig(n_servers=1, cores_per_server=48)
        result = ClusterSimulator(traces, cfg).run()
        assert result.n_rejected_on_demand == 1

    def test_admission_consulted_only_under_pressure(self):
        """A controller rules on deflation-requiring placements only: two
        8-core VMs fit a 48-core server outright, the 40-core third needs
        deflation, so only the third arrival reaches ``feasible``."""
        consulted = []

        class Counting(DeflationAwareAdmission):
            name = "test-counting"

            def feasible(self, sim, vm, candidates):
                consulted.append(vm)
                return super().feasible(sim, vm, candidates)

        traces = VMTraceSet(
            [
                flat_record("a", 0.5, cores=8, start=0, length=10),
                flat_record("b", 0.5, cores=8, start=1, length=10),
                flat_record("c", 0.5, cores=40, start=2, length=10),
            ]
        )
        register("admission", Counting.name)(Counting)
        try:
            cfg = ClusterSimConfig(n_servers=1, admission=Counting.name)
            result = ClusterSimulator(traces, cfg).run()
        finally:
            unregister("admission", Counting.name)
        assert consulted == [2]
        assert result.n_placed == 3


class TestRealTrace:
    def test_runs_clean_and_deterministic(self, azure_trace):
        cfg = ClusterSimConfig(n_servers=12)
        r1 = ClusterSimulator(azure_trace, cfg).run()
        r2 = ClusterSimulator(azure_trace, cfg).run()
        assert r1.throughput_loss == r2.throughput_loss
        assert r1.revenue == r2.revenue
        assert 0.0 <= r1.throughput_loss <= 1.0
        assert 0.0 <= r1.failure_probability <= 1.0

    def test_all_policies_run(self, azure_trace):
        for policy in ("proportional", "priority", "deterministic", "preemption"):
            cfg = ClusterSimConfig(n_servers=10, policy=policy)
            result = ClusterSimulator(azure_trace, cfg).run()
            assert result.n_placed > 0

    def test_partitioned_mode(self, azure_trace):
        cfg = ClusterSimConfig(n_servers=12, policy="priority", partitioned=True)
        result = ClusterSimulator(azure_trace, cfg).run()
        assert result.n_placed > 0

    def test_more_servers_less_loss(self, azure_trace):
        tight = ClusterSimulator(azure_trace, ClusterSimConfig(n_servers=6)).run()
        roomy = ClusterSimulator(azure_trace, ClusterSimConfig(n_servers=24)).run()
        assert roomy.throughput_loss <= tight.throughput_loss

    def test_revenue_models_present(self, azure_trace):
        result = ClusterSimulator(azure_trace, ClusterSimConfig(n_servers=12)).run()
        assert set(result.revenue) == {"static", "priority", "allocation"}
        # Priority pricing (mean pi ~0.2-0.8) beats the 0.2x static discount.
        assert result.revenue["priority"] > result.revenue["static"]
        # Allocation-based never exceeds static (same base rate, discounted
        # while deflated).
        assert result.revenue["allocation"] <= result.revenue["static"] + 1e-9


class TestServersForOvercommitment:
    def test_zero_overcommit_fits_peak(self):
        traces = VMTraceSet([flat_record("a", 0.5, cores=48, start=0, length=10, mem=1024)])
        assert servers_for_overcommitment(traces, 0.0) == 1

    def test_higher_overcommit_fewer_servers(self, azure_trace):
        n0 = servers_for_overcommitment(azure_trace, 0.0)
        n50 = servers_for_overcommitment(azure_trace, 0.5)
        assert n50 < n0

    def test_negative_rejected(self, azure_trace):
        with pytest.raises(SimulationError):
            servers_for_overcommitment(azure_trace, -0.1)

    @pytest.mark.parametrize("oc", [math.inf, math.nan])
    def test_non_finite_rejected(self, azure_trace, oc):
        # inf would size the cluster to one server, nan would fail inside
        # math.ceil with an untyped error.
        with pytest.raises(SimulationError, match="finite"):
            servers_for_overcommitment(azure_trace, oc)

    @pytest.mark.parametrize("cores", [0.0, -1.0, math.nan, math.inf])
    def test_impossible_server_cores_rejected(self, azure_trace, cores):
        # 0.0 died with a bare ZeroDivisionError; -1.0 and nan sized a
        # cluster that could place nothing.
        with pytest.raises(SimulationError, match="cores_per_server"):
            servers_for_overcommitment(azure_trace, 0.3, cores_per_server=cores)


class TestRunIsIdempotent:
    """A second ``run()`` on a finished replay only re-collects."""

    @pytest.fixture(scope="class")
    def setup(self):
        traces = synthesize_azure_trace(AzureTraceConfig(n_vms=500, seed=3))
        n_servers = servers_for_overcommitment(traces, 0.4)
        return traces, ClusterSimConfig(n_servers=n_servers, policy="priority")

    def test_plain(self, setup):
        sim = ClusterSimulator(*setup)
        assert sim.run() == sim.run()

    def test_injector_attached(self, setup):
        sim = ClusterSimulator(*setup)
        sim.attach_failures(
            FailureInjector.from_spec({"model": "spot", "rate": 0.004, "seed": 5})
        )
        first = sim.run()
        assert first.collected["failure-injection"]["revocations"] > 0
        assert sim.run() == first

    def test_stepped_with_run_until(self, setup):
        traces, config = setup
        sim = ClusterSimulator(traces, config)
        sim.run_until(traces.horizon() / 2)
        first = sim.run()
        assert sim.run() == first
        assert first == ClusterSimulator(traces, config).run()
