"""Tests for deflation-aware placement (Section 5.2)."""

import numpy as np
import pytest

from repro.core.placement import (
    CosineBestFit,
    FirstFit,
    ServerSnapshot,
    WorstFit,
    can_possibly_fit,
    filter_partition,
    partition_for_priority,
    vectorized_cosine_scores,
)
from repro.core.resources import ResourceVector
from repro.errors import PlacementError
from repro.registry import names, resolve


def snap(sid, cap_cpu=48, used_cpu=0, defl_cpu=0, oc=1.0, partition=None):
    return ServerSnapshot(
        server_id=sid,
        capacity=ResourceVector(cap_cpu, 128 * 1024, 2000, 10_000),
        used=ResourceVector(used_cpu, 0, 0, 0),
        deflatable=ResourceVector(defl_cpu, 0, 0, 0),
        overcommitment=ResourceVector(oc, oc, oc, oc),
        partition=partition,
    )


class TestAvailability:
    def test_free_server(self):
        s = snap("a")
        assert s.availability().cpu == pytest.approx(48)

    def test_deflatable_reserve_counts(self):
        s = snap("a", used_cpu=48, defl_cpu=10)
        assert s.availability().cpu == pytest.approx(10)

    def test_reserve_discounted_by_overcommitment(self):
        s = snap("a", used_cpu=48, defl_cpu=10, oc=2.0)
        assert s.availability().cpu == pytest.approx(5.0)

    def test_max_supportable(self):
        s = snap("a", used_cpu=40, defl_cpu=12)
        assert s.max_supportable().cpu == pytest.approx(20)

    def test_can_possibly_fit(self):
        demand = ResourceVector(16, 1024, 0, 0)
        assert can_possibly_fit(demand, snap("a", used_cpu=40, defl_cpu=12))
        assert not can_possibly_fit(demand, snap("b", used_cpu=40, defl_cpu=2))


class TestStrategies:
    def test_cosine_prefers_matching_shape(self):
        # Memory-hungry demand should avoid the memory-starved server.
        demand = ResourceVector(2, 6 * 1024, 50, 100)
        lopsided = ServerSnapshot(
            server_id="lop",
            capacity=ResourceVector(48, 128 * 1024, 2000, 10_000),
            used=ResourceVector(0, 120 * 1024, 0, 0),  # memory nearly gone
            deflatable=ResourceVector.zeros(),
            overcommitment=ResourceVector.full(1.0),
        )
        balanced = snap("bal")
        chosen = CosineBestFit().choose(demand, [lopsided, balanced])
        assert chosen.server_id == "bal"

    def test_cosine_prefers_scarce_shape_match(self):
        # A CPU-only demand aligns best with a server whose remaining
        # resources are CPU-dominant (reduces fragmentation, as in Tetris).
        demand = ResourceVector(8, 1 * 1024, 0, 0)
        cpu_rich = ServerSnapshot(
            server_id="cpu-rich",
            capacity=ResourceVector(48, 128 * 1024, 0, 0),
            used=ResourceVector(0, 120 * 1024, 0, 0),
            deflatable=ResourceVector.zeros(),
            overcommitment=ResourceVector.full(1.0),
        )
        mem_rich = ServerSnapshot(
            server_id="mem-rich",
            capacity=ResourceVector(48, 128 * 1024, 0, 0),
            used=ResourceVector(44, 0, 0, 0),
            deflatable=ResourceVector.zeros(),
            overcommitment=ResourceVector.full(1.0),
        )
        chosen = CosineBestFit().choose(demand, [cpu_rich, mem_rich])
        assert chosen.server_id == "cpu-rich"

    def test_no_feasible_server_raises(self):
        demand = ResourceVector(64, 1024, 0, 0)
        with pytest.raises(PlacementError):
            CosineBestFit().choose(demand, [snap("a", used_cpu=48)])

    def test_first_fit_prefers_free_capacity(self):
        demand = ResourceVector(8, 1024, 0, 0)
        full_but_deflatable = snap("a", used_cpu=48, defl_cpu=20)
        empty = snap("b")
        chosen = FirstFit().choose(demand, [full_but_deflatable, empty])
        assert chosen.server_id == "b"

    def test_worst_fit_prefers_emptiest(self):
        demand = ResourceVector(4, 1024, 0, 0)
        chosen = WorstFit().choose(demand, [snap("a", used_cpu=30), snap("b", used_cpu=10)])
        assert chosen.server_id == "b"

    def test_rank_is_deterministic(self):
        demand = ResourceVector(4, 1024, 0, 0)
        snaps = [snap("b"), snap("a")]
        order1 = [s.server_id for s in CosineBestFit().rank(demand, snaps)]
        order2 = [s.server_id for s in CosineBestFit().rank(demand, list(reversed(snaps)))]
        assert order1 == order2

    def test_registry(self):
        assert {"cosine-best-fit", "first-fit", "worst-fit"} <= set(names("placement"))
        assert isinstance(resolve("placement", "cosine-best-fit"), CosineBestFit)


class TestPartitions:
    def test_filter_none_returns_all(self):
        snaps = [snap("a", partition="pool-0"), snap("b")]
        assert len(filter_partition(snaps, None)) == 2

    def test_filter_label(self):
        snaps = [snap("a", partition="pool-0"), snap("b", partition="pool-1")]
        out = filter_partition(snaps, "pool-1")
        assert [s.server_id for s in out] == ["b"]

    def test_partition_for_priority_buckets(self):
        assert partition_for_priority(0.2) == "pool-0"
        assert partition_for_priority(0.4) == "pool-1"
        assert partition_for_priority(0.6) == "pool-2"
        assert partition_for_priority(0.8) == "pool-3"


class TestVectorizedScores:
    def test_matches_scalar_fitness(self):
        from repro.core.resources import cosine_fitness

        demand = ResourceVector(4, 8192, 10, 10)
        avail = [snap("a", used_cpu=10).availability(), snap("b", used_cpu=44).availability()]
        mat = np.vstack([a.as_array() for a in avail])
        scores = vectorized_cosine_scores(demand.as_array(), mat)
        for i, a in enumerate(avail):
            assert scores[i] == pytest.approx(cosine_fitness(demand, a))

    def test_zero_demand_rejected(self):
        with pytest.raises(PlacementError):
            vectorized_cosine_scores(np.zeros(4), np.ones((2, 4)))

    def test_bad_shape_rejected(self):
        with pytest.raises(PlacementError):
            vectorized_cosine_scores(np.ones(3), np.ones((2, 3)))
