"""Partitioned-mode coverage: pool assignment, routing, and exhaustion.

Section 5.2.1: partitioning the cluster into per-priority pools isolates
interference but turns pool exhaustion into admission-control rejections —
previously untested edge paths of the simulator.
"""

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.simulator.cluster_sim import ClusterSimConfig, ClusterSimulator
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace
from repro.traces.schema import VMTraceRecord, VMTraceSet


def flat_record(vm_id, util, cores, start, length, cls=VMClass.INTERACTIVE, mem=1024):
    return VMTraceRecord(
        vm_id=vm_id,
        vm_class=cls,
        cores=cores,
        memory_mb=mem,
        start_interval=start,
        cpu_util=np.full(length, util),
    )


# Utilization levels mapping to the four priority levels via priority_from_p95:
# 0.1 -> 0.2, 0.5 -> 0.4, 0.7 -> 0.6, 0.9 -> 0.8.
LOW_UTIL, HIGH_UTIL = 0.1, 0.9


def two_level_traces(n_low=3, n_high=3, n_od=2, cores=8):
    records = []
    for i in range(n_low):
        records.append(flat_record(f"low-{i}", LOW_UTIL, cores, start=0, length=10))
    for i in range(n_high):
        records.append(flat_record(f"high-{i}", HIGH_UTIL, cores, start=0, length=10))
    for i in range(n_od):
        records.append(
            flat_record(f"od-{i}", 0.8, cores, start=0, length=10, cls=VMClass.DELAY_INSENSITIVE)
        )
    return VMTraceSet(records)


class TestPartitionAssignment:
    def test_pool_counts_cover_every_server_exactly_once(self):
        traces = two_level_traces()
        cfg = ClusterSimConfig(n_servers=8, partitioned=True)
        sim = ClusterSimulator(traces, cfg)
        # 2 deflatable levels + 1 on-demand pool, all servers assigned.
        assert sim.server_pool.shape == (8,)
        assert np.all(sim.server_pool >= 0)
        assert set(sim.server_pool.tolist()) == {0, 1, 2}
        assert sim._on_demand_pool == 2
        assert set(sim._pool_of_level) == {0.2, 0.8}

    def test_pool_sizes_follow_demand_shares(self):
        # 6 low-priority VMs vs 1 high-priority VM: the low pool gets more
        # servers (shares are committed-capacity weighted).
        traces = two_level_traces(n_low=6, n_high=1, n_od=1)
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=8, partitioned=True))
        low_pool = sim._pool_of_level[0.2]
        high_pool = sim._pool_of_level[0.8]
        assert (sim.server_pool == low_pool).sum() > (sim.server_pool == high_pool).sum()

    def test_fewer_servers_than_pools_leaves_pools_empty(self):
        traces = two_level_traces()
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=1, partitioned=True))
        # 3 pools, 1 server: at least one pool has no servers at all.
        assigned = set(sim.server_pool.tolist())
        assert len(assigned) == 1
        result = sim.run()
        # Every VM outside the surviving pool was rejected outright.
        assert result.n_rejected_deflatable + result.n_rejected_on_demand > 0


class TestPoolRouting:
    def test_vms_land_only_in_their_pool(self):
        traces = two_level_traces()
        cfg = ClusterSimConfig(n_servers=9, partitioned=True)
        sim = ClusterSimulator(traces, cfg)
        sim.run()
        for i, rec in enumerate(traces):
            if not sim.vm_placed[i]:
                continue
            server = int(sim.vm_server[i])
            pool = int(sim.server_pool[server])
            if rec.vm_class == VMClass.INTERACTIVE:
                expected = sim._pool_of_level[round(float(sim.vm_prio[i]), 6)]
            else:
                expected = sim._on_demand_pool
            assert pool == expected, f"{rec.vm_id} landed in pool {pool}"

    def test_unpartitioned_candidates_are_all_servers(self):
        traces = two_level_traces()
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=5))
        np.testing.assert_array_equal(sim._candidate_servers(0), np.arange(5))

    def test_partitioned_preemption_baseline_routes_too(self):
        traces = two_level_traces()
        cfg = ClusterSimConfig(n_servers=9, policy="preemption", partitioned=True)
        sim = ClusterSimulator(traces, cfg)
        result = sim.run()
        assert result.n_placed > 0
        for i in range(len(traces)):
            if sim.vm_placed[i] and sim.vm_deflatable[i]:
                pool = int(sim.server_pool[int(sim.vm_server[i])])
                assert pool == sim._pool_of_level[round(float(sim.vm_prio[i]), 6)]


class TestPoolExhaustion:
    def test_full_pool_rejects_rather_than_spilling(self):
        # One 8-core VM per level fills each 8-core pool server; the second
        # low-priority VM must be rejected even though the high pool and the
        # on-demand pool still have room elsewhere in the cluster.
        traces = VMTraceSet(
            [
                flat_record("low-0", LOW_UTIL, 8, start=0, length=10),
                flat_record("low-1", LOW_UTIL, 8, start=1, length=10),
                flat_record("high-0", HIGH_UTIL, 8, start=0, length=10),
                flat_record("od-0", 0.8, 8, start=0, length=10, cls=VMClass.DELAY_INSENSITIVE),
            ]
        )
        cfg = ClusterSimConfig(
            n_servers=3, cores_per_server=8, memory_per_server_mb=2048,
            partitioned=True, min_fraction=0.9,
        )
        sim = ClusterSimulator(traces, cfg)
        result = sim.run()
        index = {traces[i].vm_id: i for i in range(len(traces))}
        assert sim.vm_placed[index["low-0"]]
        assert sim.vm_rejected[index["low-1"]], "pool exhaustion must reject, not spill"
        assert sim.vm_placed[index["high-0"]]
        assert sim.vm_placed[index["od-0"]]
        assert result.n_rejected_deflatable == 1

    def test_shared_pool_accepts_what_partitions_reject(self):
        traces = two_level_traces(n_low=5, n_high=1, n_od=1, cores=8)
        kwargs = dict(n_servers=3, cores_per_server=16, memory_per_server_mb=8192,
                      min_fraction=0.8)
        part = ClusterSimulator(traces, ClusterSimConfig(partitioned=True, **kwargs)).run()
        shared = ClusterSimulator(traces, ClusterSimConfig(**kwargs)).run()
        assert shared.n_placed >= part.n_placed
        assert part.n_rejected_deflatable >= shared.n_rejected_deflatable


class TestPartitionTrimRegression:
    """The trim loop must honor the one-server-per-pool minimum.

    ``counts[np.argmax(counts)] -= 1`` used to be able to drive pools to
    zero servers whenever rounding overshot and every pool was already at
    one server (many priority levels, few servers), silently disabling
    whole priority classes.  Now the trim only shrinks pools with spare
    servers; only when pools outnumber servers are pools dropped, smallest
    demand share first.
    """

    def four_level_traces(self, counts=(1, 1, 1, 1), n_od=1, cores=4):
        # Utils 0.1/0.5/0.7/0.9 -> the four priority levels 0.2/0.4/0.6/0.8.
        utils = (0.1, 0.5, 0.7, 0.9)
        records = []
        for lvl, (n, util) in enumerate(zip(counts, utils)):
            for i in range(n):
                records.append(flat_record(f"l{lvl}-{i}", util, cores, 0, 10))
        for i in range(n_od):
            records.append(
                flat_record(f"od-{i}", 0.8, cores, 0, 10, cls=VMClass.DELAY_INSENSITIVE)
            )
        return VMTraceSet(records)

    def test_every_pool_keeps_a_server_when_servers_suffice(self):
        # 5 pools (4 levels + on-demand), 6 servers, heavily skewed demand:
        # rounding inflates the big pool and the trim must not zero a
        # one-server pool to compensate.
        traces = self.four_level_traces(counts=(40, 1, 1, 1), n_od=1)
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=6, partitioned=True))
        counts = np.bincount(sim.server_pool, minlength=5)
        assert counts.sum() == 6
        assert np.all(counts >= 1), f"pool starved: {counts.tolist()}"

    @pytest.mark.parametrize("n_servers", [5, 6, 7, 9, 13])
    def test_minimum_holds_across_sizes(self, n_servers):
        traces = self.four_level_traces(counts=(25, 9, 3, 1), n_od=2)
        sim = ClusterSimulator(
            traces, ClusterSimConfig(n_servers=n_servers, partitioned=True)
        )
        counts = np.bincount(sim.server_pool, minlength=5)
        assert counts.sum() == n_servers
        assert np.all(counts >= 1)

    def test_more_pools_than_servers_drops_smallest_shares(self):
        # 5 pools, 3 servers: the minimum is infeasible; the two smallest
        # demand pools are dropped, never driven negative.
        traces = self.four_level_traces(counts=(40, 20, 1, 1), n_od=10)
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=3, partitioned=True))
        counts = np.bincount(sim.server_pool, minlength=5)
        assert counts.sum() == 3
        assert np.all(counts >= 0)
        surviving = set(np.nonzero(counts)[0].tolist())
        # Biggest shares: level-0 pool (0), level-1 pool (1), on-demand (4).
        assert surviving == {0, 1, 4}
        result = sim.run()
        assert result.n_placed > 0

    def test_single_server_still_runs(self):
        traces = self.four_level_traces()
        sim = ClusterSimulator(traces, ClusterSimConfig(n_servers=1, partitioned=True))
        assert (sim.server_pool >= 0).all()
        sim.run()


class TestPartitionedDeterminism:
    @pytest.mark.parametrize("policy", ["proportional", "priority", "deterministic"])
    def test_partitioned_runs_are_reproducible(self, policy):
        traces = synthesize_azure_trace(AzureTraceConfig(n_vms=150, seed=3))
        cfg = ClusterSimConfig(n_servers=10, policy=policy, partitioned=True)
        r1 = ClusterSimulator(traces, cfg).run()
        r2 = ClusterSimulator(traces, cfg).run()
        assert r1 == r2
