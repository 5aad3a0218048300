"""Tests for the overcommitment grid and the Figure 20/21/22 orderings."""

import pytest

from repro.errors import SimulationError
from repro.scenario import ResultSet, Scenario, run_sweep
from repro.simulator.metrics import DEFAULT_POLICIES, revenue_increase
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace


@pytest.fixture(scope="module")
def sweep() -> ResultSet:
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=400, seed=21))
    base = Scenario(name="overcommitment-sweep").with_traces(traces)
    return run_sweep(
        [
            base.with_policy(policy).with_overcommitment(oc)
            for policy in DEFAULT_POLICIES
            for oc in (0.0, 0.3, 0.6)
        ]
    )


def by_pct(sweep: ResultSet, policy: str, metric: str) -> dict[float, float]:
    """``{overcommitment %: metric}`` for one policy, keyed as the figures are."""
    pairs = sweep.filter(policy=policy).series("overcommitment", metric)
    return {100 * oc: v for oc, v in pairs}


class TestStructure:
    def test_all_policies_present(self, sweep):
        assert {r.scenario.policy for r in sweep} == {
            "proportional",
            "priority",
            "deterministic",
            "preemption",
        }

    def test_levels_preserved(self, sweep):
        for policy in DEFAULT_POLICIES:
            series = sweep.filter(policy=policy)
            assert [r.scenario.overcommitment for r in series] == [0.0, 0.3, 0.6]

    def test_server_counts_decrease(self, sweep):
        counts = [r.n_servers for r in sweep.filter(policy="proportional")]
        assert counts == sorted(counts, reverse=True)

    def test_unknown_policy_lookup(self, sweep):
        with pytest.raises(SimulationError):
            revenue_increase(sweep.filter(policy="nope"), "static")

    def test_unknown_pricing_lookup(self, sweep):
        with pytest.raises(SimulationError):
            revenue_increase(sweep.filter(policy="priority"), "gold-plated")


class TestPaperOrderings:
    """The relational results of Figures 20-22."""

    def test_fig20_preemption_dominates_deflation_failures(self, sweep):
        at_60 = {
            p: by_pct(sweep, p, "failure_probability")[60.0]
            for p in ("proportional", "priority", "deterministic", "preemption")
        }
        assert at_60["preemption"] > 0.1
        for policy in ("proportional", "priority", "deterministic"):
            assert at_60[policy] < at_60["preemption"] / 3

    def test_fig20_proportional_lowest_failure(self, sweep):
        for oc in (30.0, 60.0):
            vals = {
                p: by_pct(sweep, p, "failure_probability")[oc]
                for p in ("proportional", "priority", "deterministic")
            }
            assert vals["proportional"] <= vals["priority"] + 1e-9
            assert vals["proportional"] <= vals["deterministic"] + 1e-9

    def test_fig21_priority_beats_proportional_on_throughput(self, sweep):
        at_60 = {
            p: by_pct(sweep, p, "throughput_loss")[60.0]
            for p in ("proportional", "priority", "deterministic")
        }
        assert at_60["priority"] < at_60["proportional"]
        assert at_60["deterministic"] < at_60["proportional"]

    def test_fig21_loss_small_at_low_overcommitment(self, sweep):
        for policy in ("proportional", "priority", "deterministic"):
            at_0 = by_pct(sweep, policy, "throughput_loss")[0.0]
            assert at_0 < 0.02

    def test_fig22_priority_pricing_above_static(self, sweep):
        priority = sweep.filter(policy="priority")
        static = dict(revenue_increase(priority, "static"))
        prio = dict(revenue_increase(priority, "priority"))
        for oc in (0.0, 30.0, 60.0):
            assert prio[oc] > static[oc]

    def test_fig22_static_revenue_grows_with_overcommitment(self, sweep):
        static = [v for _, v in revenue_increase(sweep.filter(policy="priority"), "static")]
        assert static[-1] > static[0]

    def test_fig22_allocation_pricing_dampened(self, sweep):
        priority = sweep.filter(policy="priority")
        static = dict(revenue_increase(priority, "static"))
        alloc = dict(revenue_increase(priority, "allocation"))
        assert alloc[60.0] < static[60.0]
