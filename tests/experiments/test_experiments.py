"""Every registered experiment must run at small scale and reproduce the
paper's qualitative claims (shape checks, not absolute numbers)."""

import pytest

from repro.errors import ReproError
from repro.experiments.base import ExperimentResult, check_scale
from repro.experiments import fig20_failure
from repro.experiments.registry import get_experiment
from repro.registry import names

ALL_IDS = names("experiment")


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (small scale); reuse across assertions."""
    return {fig_id: get_experiment(fig_id)("small") for fig_id in ALL_IDS}


class TestRegistry:
    def test_experiment_count(self):
        assert len(ALL_IDS) == 19  # 17 paper figures + portfolio + churn

    def test_lookup(self):
        assert get_experiment("fig20") is fig20_failure.run
        with pytest.raises(ReproError):
            get_experiment("fig99")

    def test_scale_validation(self):
        assert check_scale("small") == "small"
        with pytest.raises(ReproError):
            check_scale("enormous")


class TestAllRun:
    @pytest.mark.parametrize("fig_id", ALL_IDS)
    def test_runs_and_has_rows(self, results, fig_id):
        result = results[fig_id]
        assert isinstance(result, ExperimentResult)
        assert result.figure_id == fig_id
        assert result.rows, f"{fig_id} produced no rows"
        assert result.format_table()  # printable

    @pytest.mark.parametrize("fig_id", ALL_IDS)
    def test_rows_cover_columns(self, results, fig_id):
        result = results[fig_id]
        for row in result.rows:
            missing = [c for c in result.columns if c not in row]
            assert not missing, f"{fig_id} row missing {missing}"


class TestShapeClaims:
    def test_fig03_specjbb_has_no_slack_memcached_does(self, results):
        rows = results["fig03"].rows
        at_10 = next(r for r in rows if abs(r["deflation_pct"] - 10) < 1)
        assert at_10["SpecJBB"] < 0.99
        assert at_10["Memcached"] == pytest.approx(1.0)

    def test_fig05_median_low_at_50pct(self, results):
        rows = [r for r in results["fig05"].rows if abs(r["deflation_pct"] - 50) < 1]
        assert rows[0]["median"] <= 0.30

    def test_fig06_interactive_beats_batch(self, results):
        rows = results["fig06"].rows
        inter = {r["deflation_pct"]: r["mean"] for r in rows if r["group"] == "interactive"}
        batch = {r["deflation_pct"]: r["mean"] for r in rows if r["group"] == "delay-insensitive"}
        for pct in (30.0, 50.0):
            assert inter[pct] < batch[pct]

    def test_fig07_sizes_similar(self, results):
        rows = [r for r in results["fig07"].rows if abs(r["deflation_pct"] - 50) < 1]
        means = [r["mean"] for r in rows]
        assert max(means) - min(means) < 0.25

    def test_fig08_peak_orders_impact(self, results):
        rows = [r for r in results["fig08"].rows if abs(r["deflation_pct"] - 40) < 1]
        by_group = {r["group"]: r["mean"] for r in rows}
        order = ["p95<33%", "33%<=p95<66%", "66%<=p95<80%", "p95>=80%"]
        present = [g for g in order if g in by_group]
        vals = [by_group[g] for g in present]
        assert vals == sorted(vals)

    def test_fig09_memory_occupancy_high(self, results):
        rows = [r for r in results["fig09"].rows if abs(r["deflation_pct"] - 10) < 1]
        assert rows[0]["median"] > 0.70

    def test_fig10_bandwidth_tiny(self, results):
        rows = {r["statistic"]: r["value_pct"] for r in results["fig10"].rows}
        assert rows["mean"] < 0.2  # percent
        assert rows["max"] <= 1.01

    def test_fig11_disk_feasible(self, results):
        rows = [r for r in results["fig11"].rows if abs(r["deflation_pct"] - 50) < 1]
        assert rows[0]["mean"] < 0.01

    def test_fig12_network_feasible(self, results):
        rows = {r["deflation_pct"]: r["mean"] for r in results["fig12"].rows}
        assert rows[70.0] < 0.05
        assert rows[50.0] < 0.005

    def test_fig14_hybrid_advantage(self, results):
        rows = {r["deflation_pct"]: r for r in results["fig14"].rows}
        assert rows[20.0]["hybrid_rt"] < rows[20.0]["transparent_rt"]
        assert rows[45.0]["transparent_rt"] > 1.3

    def test_fig16_flat_then_degrading(self, results):
        rows = {r["deflation_pct"]: r for r in results["fig16"].rows}
        assert rows[50]["mean_rt_s"] < 1.5 * rows[0]["mean_rt_s"]
        assert rows[90]["mean_rt_s"] > 2 * rows[0]["mean_rt_s"]

    def test_fig17_served_cliff_after_70(self, results):
        rows = {r["deflation_pct"]: r["served_pct"] for r in results["fig17"].rows}
        assert rows[70] > 98
        assert rows[97] < 90

    def test_fig18_abrupt_knee(self, results):
        rows = {r["deflation_pct"]: r for r in results["fig18"].rows}
        assert rows[50]["p99_ms"] < 4 * rows[0]["p99_ms"]
        assert rows[65]["p99_ms"] > 2.5 * rows[50]["p99_ms"]

    def test_fig19_aware_wins_at_high_deflation(self, results):
        rows = {r["deflation_pct"]: r for r in results["fig19"].rows}
        assert rows[80]["aware_p90_s"] < rows[80]["vanilla_p90_s"]

    def test_fig20_deflation_beats_preemption(self, results):
        rows = {r["overcommit_pct"]: r for r in results["fig20"].rows}
        top = max(rows)
        assert rows[top]["preemption_failure"] > 0.1
        assert rows[top]["proportional_failure"] < rows[top]["preemption_failure"] / 3

    def test_fig21_priority_order_of_magnitude(self, results):
        rows = {r["overcommit_pct"]: r for r in results["fig21"].rows}
        top = max(rows)
        assert rows[top]["priority_loss"] < rows[top]["proportional_loss"]

    def test_fig22_pricing_ordering(self, results):
        rows = {r["overcommit_pct"]: r for r in results["fig22"].rows}
        top = max(rows)
        assert rows[top]["priority_increase_pct"] > rows[top]["static_increase_pct"]
        assert rows[top]["allocation_increase_pct"] < rows[top]["static_increase_pct"]
