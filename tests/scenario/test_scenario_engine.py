"""Tests for the scenario engines."""

import pytest

from repro.errors import SimulationError
from repro.scenario import ClusterSimEngine, Scenario, resolve_workload, run_scenario
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimulator,
    servers_for_overcommitment,
)
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace

WORKLOAD = {"n_vms": 120, "seed": 9}


@pytest.fixture(scope="module")
def traces():
    return synthesize_azure_trace(AzureTraceConfig(**WORKLOAD))


class TestResolveWorkload:
    def test_declarative_workload_matches_direct_synthesis(self, traces):
        s = Scenario().with_workload("azure", **WORKLOAD)
        resolved = resolve_workload(s)
        assert len(resolved) == len(traces)
        assert [r.vm_id for r in resolved] == [r.vm_id for r in traces]

    def test_workload_cached_per_process(self):
        s = Scenario().with_workload("azure", **WORKLOAD)
        assert resolve_workload(s) is resolve_workload(s)

    def test_explicit_traces_passthrough(self, traces):
        assert resolve_workload(Scenario().with_traces(traces)) is traces

    def test_missing_workload_raises(self):
        with pytest.raises(SimulationError, match="no workload"):
            resolve_workload(Scenario())

    def test_non_vm_workload_rejected(self):
        s = Scenario().with_workload("alibaba", n_containers=5)
        with pytest.raises(SimulationError, match="VMTraceSet"):
            resolve_workload(s)


class TestClusterSimEngine:
    def test_matches_direct_simulator_exactly(self, traces):
        """The engine is construction glue only: results are bit-identical
        to driving ClusterSimulator by hand."""
        direct = ClusterSimulator(
            traces, ClusterSimConfig(n_servers=6, policy="priority")
        ).run()
        via_scenario = run_scenario(
            Scenario().with_traces(traces).with_policy("priority").with_servers(6)
        )
        assert via_scenario.sim == direct

    def test_overcommitment_resolves_paper_cluster_size(self, traces):
        target = 0.5
        result = run_scenario(
            Scenario().with_traces(traces).with_overcommitment(target)
        )
        assert result.n_servers == servers_for_overcommitment(traces, target)

    def test_unsized_scenario_defaults_to_zero_overcommitment(self, traces):
        result = run_scenario(Scenario().with_traces(traces))
        assert result.n_servers == servers_for_overcommitment(traces, 0.0)

    def test_build_exposes_simulator_for_surgery(self, traces):
        engine = ClusterSimEngine()
        sim = engine.build(Scenario().with_traces(traces).with_servers(4))
        assert isinstance(sim, ClusterSimulator)
        assert sim.config.n_servers == 4
        # build() does not run: no VM placed yet.
        assert not sim.vm_placed.any()

    def test_collectors_attach_through_scenario(self, traces):
        result = run_scenario(
            Scenario()
            .with_traces(traces)
            .with_servers(6)
            .with_collectors("event-counts", "rejection-log")
        )
        counts = result.collected["event-counts"]
        assert counts["admit"] == result.sim.n_placed
        assert counts["reject"] == len(result.collected["rejection-log"])

    def test_scenario_run_convenience(self, traces):
        result = Scenario().with_traces(traces).with_servers(6).run()
        assert result.scenario.n_servers == 6
        assert 0.0 <= result.failure_probability <= 1.0

    def test_result_properties_mirror_sim(self, traces):
        r = run_scenario(Scenario().with_traces(traces).with_servers(6))
        assert r.failure_probability == r.sim.failure_probability
        assert r.throughput_loss == r.sim.throughput_loss
        assert r.mean_deflation == r.sim.mean_deflation
        assert r.revenue == r.sim.revenue
        assert r.achieved_overcommitment == r.sim.overcommitment
