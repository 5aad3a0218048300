"""Tests for parallel scenario sweeps.

The acceptance bar: the parallel path must reproduce the serial path
bit-identically (same floats, same ordering) on Figure 20's sweep grid.
"""

import pytest

from repro.experiments.cluster_sweep import OC_LEVELS_SMALL, cluster_sweep
from repro.scenario import ResultSet, Scenario, run_sweep
from repro.simulator.metrics import DEFAULT_POLICIES


@pytest.fixture(scope="module")
def small_grid():
    base = Scenario(name="sweep-test").with_workload("azure", n_vms=150, seed=4)
    return [
        base.with_policy(policy).with_overcommitment(oc)
        for policy in ("proportional", "preemption")
        for oc in (0.0, 0.5)
    ]


class TestRunSweep:
    def test_serial_preserves_order(self, small_grid):
        results = run_sweep(small_grid)
        assert isinstance(results, ResultSet)
        assert [r.scenario for r in results] == small_grid

    def test_parallel_bit_identical_to_serial(self, small_grid):
        serial = run_sweep(small_grid)
        parallel = run_sweep(small_grid, workers=4)
        assert len(serial) == len(parallel) == len(small_grid)
        for s, p in zip(serial, parallel):
            assert s.scenario == p.scenario
            assert s.sim == p.sim  # full dataclass equality: every float

    def test_filter_and_series(self, small_grid):
        results = run_sweep(small_grid)
        prop = results.filter(policy="proportional")
        assert len(prop) == 2
        series = prop.series("overcommitment", "failure_probability")
        assert [x for x, _ in series] == [0.0, 0.5]
        with pytest.raises(Exception, match="unknown scenario attribute"):
            results.filter(polcy="proportional")

    def test_single_scenario_skips_pool(self, small_grid):
        results = run_sweep(small_grid[:1], workers=8)
        assert len(results) == 1


class TestFigure20Equivalence:
    """``cluster_sweep(workers=4)`` reproduces Figure 20's grid bit-identically."""

    def test_fig20_grid_parallel_equals_serial(self):
        cluster_sweep.cache_clear()  # every scenario misses, so all fan out
        parallel = cluster_sweep("small", workers=4)  # the grid Figure 20 is drawn from
        serial = run_sweep(parallel.scenarios())  # cold, uncached, in-process
        assert parallel.scenarios() == serial.scenarios()
        assert [r.scenario.policy for r in parallel] == [
            p for p in DEFAULT_POLICIES for _ in OC_LEVELS_SMALL
        ]
        for p, s in zip(parallel, serial):
            assert p.n_servers == s.n_servers
            assert p.sim == s.sim  # bit-identical metrics
