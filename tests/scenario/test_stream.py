"""`ScenarioStream`: bounded-memory streaming, still the cold run's bits.

Compaction finalizes the metric terms of VMs that ended behind the
boundary and drops their allocation-history rows; the final result must
nevertheless equal a one-shot ``scenario.run()`` exactly — compaction is
a memory optimization, not an approximation.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.scenario import ClusterSimEngine, Scenario, ScenarioStream, resolve_cluster


@pytest.fixture(scope="module")
def scenario():
    return (
        Scenario(name="stream")
        .with_workload("azure", n_vms=300, seed=2024)
        .with_overcommitment(0.5)
        .with_policy("proportional")
        .with_collectors("event-counts")
    )


@pytest.fixture(scope="module")
def failing(scenario):
    return scenario.with_failures("spot", rate=0.004, seed=7, response="kill", restart_delay=2)


@pytest.fixture(scope="module")
def horizon(scenario):
    traces, _ = resolve_cluster(scenario)
    return float(traces.horizon())


def steps(horizon, n=10):
    return [horizon * (i + 1) / n for i in range(n)]


class TestStreaming:
    def test_stepped_run_equals_one_shot(self, scenario, horizon):
        stream = ScenarioStream(scenario)
        for boundary in steps(horizon):
            tick = stream.advance(boundary)
            assert tick.t == boundary
        assert stream.result().sim == scenario.run().sim

    def test_compacted_stream_equals_one_shot(self, failing, horizon):
        stream = ScenarioStream(failing, compact=True)
        for boundary in steps(horizon):
            stream.advance(boundary)
        assert stream.result().sim == failing.run().sim

    def test_compact_lag_leaves_a_grace_window_and_the_bits(self, failing, horizon):
        stream = ScenarioStream(failing, compact=True, compact_lag=5.0)
        for boundary in steps(horizon, n=20):
            stream.advance(boundary)
        assert stream.result().sim == failing.run().sim

    def test_compaction_bounds_history_memory(self, scenario, horizon):
        """The bounded-memory claim itself: a compacting stream's peak
        history footprint stays well under the uncompacted total."""
        plain = ScenarioStream(scenario)
        for boundary in steps(horizon):
            uncompacted_total = plain.advance(boundary).history_rows

        compacted = ScenarioStream(scenario, compact=True)
        peak = finalized = 0
        for boundary in steps(horizon):
            tick = compacted.advance(boundary)
            peak = max(peak, tick.history_rows)
            finalized = tick.finalized_vms
        assert finalized > 0
        assert peak < uncompacted_total / 2
        assert compacted.result().sim == plain.result().sim

    def test_ticks_report_progress(self, scenario, horizon):
        stream = ScenarioStream(scenario)
        assert stream.at == 0.0
        tick = stream.advance(horizon / 4)
        assert stream.at == horizon / 4
        assert tick.committed_cores > 0.0
        assert tick.history_rows > 0
        assert tick.finalized_vms == 0  # not compacting

    def test_snapshot_mid_stream_feeds_with_checkpoint(self, failing, horizon):
        stream = ScenarioStream(failing)
        stream.advance(horizon / 3)
        snap = stream.snapshot()
        assert snap.at == horizon / 3
        assert failing.with_checkpoint(snap).run().sim == failing.run().sim

    def test_result_is_idempotent(self, scenario):
        stream = ScenarioStream(scenario)
        assert stream.result() is stream.result()


class TestStreamRefusals:
    def test_sharded_scenarios_do_not_stream(self, scenario):
        with pytest.raises(SimulationError, match="cluster-sim"):
            ScenarioStream(scenario.with_partitions().with_engine("sharded"))

    def test_negative_lag(self, scenario):
        with pytest.raises(SimulationError, match="compact_lag"):
            ScenarioStream(scenario, compact_lag=-1.0)

    def test_advance_after_finish(self, scenario):
        stream = ScenarioStream(scenario)
        stream.result()
        with pytest.raises(SimulationError, match="finished"):
            stream.advance(10.0)
        with pytest.raises(SimulationError, match="finished"):
            stream.snapshot()

    def test_advance_backwards(self, scenario, horizon):
        stream = ScenarioStream(scenario)
        stream.advance(horizon / 2)
        with pytest.raises(SimulationError, match="backward"):
            stream.advance(horizon / 4)
        # NaN compares false against every boundary; it must not pass for
        # a silent no-op step.
        with pytest.raises(SimulationError, match="nan"):
            stream.advance(float("nan"))
        with pytest.raises(SimulationError, match="nan"):
            ScenarioStream(scenario).advance(float("nan"))
        assert stream.at == horizon / 2

    def test_compacting_beyond_the_boundary_refused(self, scenario, horizon):
        sim = ClusterSimEngine().build(scenario)
        sim.run_until(horizon / 4)
        with pytest.raises(SimulationError, match="boundary"):
            sim.compact_history(horizon / 2)
