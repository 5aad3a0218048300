"""Coverage for the preemption baseline's victim planner.

``_plan_victims`` decides which deflatable residents an arriving
on-demand VM evicts: victims accumulate in ascending priority order until
the demand fits, the plan is empty when the VM already fits, and it is None
when even evicting every deflatable resident would not make room.
"""

import numpy as np

from repro.core.vm import VMClass
from repro.simulator.cluster_sim import ClusterSimConfig, ClusterSimulator
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


# Utilizations mapping to priorities via priority_from_p95:
# 0.1 -> 0.2, 0.5 -> 0.4, 0.7 -> 0.6, 0.9 -> 0.8.
UTIL_FOR_PRIO = {0.2: 0.1, 0.4: 0.5, 0.6: 0.7, 0.8: 0.9}


def sim_with_residents(prios_and_cores, cores_per_server=48, length=50):
    """One big server hosting deflatable residents of given (prio, cores)."""
    records = [
        flat_record(f"defl-{i}", UTIL_FOR_PRIO[p], c, start=0, length=length)
        for i, (p, c) in enumerate(prios_and_cores)
    ]
    traces = VMTraceSet(records)
    sim = ClusterSimulator(
        traces,
        ClusterSimConfig(
            n_servers=1, cores_per_server=cores_per_server, policy="preemption"
        ),
    )
    # Admit every resident directly (all fit at full allocation).
    for i in range(len(records)):
        sim._admit(0.0, i, 0)
    return sim


class TestPlanShape:
    def test_empty_plan_when_vm_already_fits(self):
        sim = sim_with_residents([(0.2, 8), (0.8, 8)], cores_per_server=48)
        assert sim._plan_victims(0, 8.0, 64.0, None) == []

    def test_victims_ascend_by_priority(self):
        # Residents deliberately admitted in non-priority order.
        sim = sim_with_residents(
            [(0.8, 8), (0.2, 8), (0.6, 8), (0.4, 8)], cores_per_server=34
        )
        # 2 free cores; a 20-core demand needs 18 more -> three victims.
        victims = sim._plan_victims(0, 20.0, 64.0, None)
        prios = [round(float(sim.vm_prio[v]), 1) for v in victims]
        assert prios == sorted(prios), "victims must ascend by priority"
        assert prios == [0.2, 0.4, 0.6]

    def test_priority_ties_break_by_vm_index(self):
        sim = sim_with_residents([(0.2, 8), (0.2, 8), (0.2, 8)], cores_per_server=24)
        victims = sim._plan_victims(0, 10.0, 64.0, None)
        assert victims == sorted(victims)

    def test_none_when_even_total_eviction_is_insufficient(self):
        sim = sim_with_residents([(0.2, 8), (0.4, 8)], cores_per_server=24)
        # 8 cores free + 16 deflatable: a 30-core demand can never fit.
        assert sim._plan_victims(0, 30.0, 64.0, None) is None

    def test_memory_dimension_counts_too(self):
        sim = sim_with_residents([(0.2, 4)], cores_per_server=48)
        # Fits on CPU but needs more memory than the server has at all.
        assert sim._plan_victims(0, 4.0, 1e9, None) is None

    def test_plan_stops_at_first_sufficient_victim_set(self):
        sim = sim_with_residents(
            [(0.2, 16), (0.4, 8), (0.6, 8)], cores_per_server=32
        )
        # 0 free; demand 12 is covered by the first (16-core) victim alone.
        victims = sim._plan_victims(0, 12.0, 64.0, None)
        assert len(victims) == 1
        assert round(float(sim.vm_prio[victims[0]]), 1) == 0.2


class TestLimitPruning:
    """_plan_victims(limit=...) powers the fewest-preemptions server scan."""

    def test_limit_prunes_plans_that_cannot_win(self):
        sim = sim_with_residents(
            [(0.2, 8), (0.4, 8), (0.6, 8)], cores_per_server=24
        )
        full = sim._plan_victims(0, 20.0, 64.0, None)
        assert len(full) == 3
        # A best-so-far of 3 means this server's equal-length plan loses.
        assert sim._plan_victims(0, 20.0, 64.0, 3) is None
        # A larger allowance keeps the plan intact.
        assert sim._plan_victims(0, 20.0, 64.0, 4) == full

    def test_limit_does_not_affect_shorter_plans(self):
        sim = sim_with_residents([(0.2, 16), (0.4, 8)], cores_per_server=24)
        assert sim._plan_victims(0, 10.0, 64.0, 2) == sim._plan_victims(0, 10.0, 64.0, None)


class TestEndToEndPreemption:
    def test_fewest_preemptions_server_wins(self):
        # Server layout: let the event loop place things, then verify the
        # arriving on-demand VM evicted the minimal set.
        traces = VMTraceSet(
            [
                flat_record("defl-big", 0.1, 24, start=0, length=30),
                flat_record("defl-a", 0.1, 12, start=0, length=30),
                flat_record("defl-b", 0.1, 12, start=0, length=30),
                flat_record(
                    "od", 0.8, 20, start=5, length=10, cls=VMClass.DELAY_INSENSITIVE
                ),
            ]
        )
        sim = ClusterSimulator(
            traces,
            ClusterSimConfig(n_servers=2, cores_per_server=24, policy="preemption"),
        )
        result = sim.run()
        assert result.n_preempted >= 1
        preempted = {
            traces[i].vm_id for i in range(len(traces)) if sim.vm_preempted[i]
        }
        # Evicting the single 24-core VM frees a whole server; evicting both
        # 12-core VMs would too but needs two preemptions.
        assert preempted == {"defl-big"}
