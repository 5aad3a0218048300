"""Churn semantics: correlated failures, warning-time drains, arrivals.

Three layers of coverage:

* model level — ``correlated-spot`` revokes whole blast-radius groups,
  ``elastic-pool`` interleaves arrivals with revocations, and both stay
  deterministic; blast radius 1 reproduces ``spot`` schedules bit for bit;
* injector level — hand-built ``trace-schedule`` clusters exercise the
  warning-window drain (budgets, retries, deadlines) and mid-run server
  attach with exact, asserted outcomes;
* scenario level — the ``topology`` schema field validates, round-trips,
  and feeds the failure model; ``correlated-spot`` with blast radius 1 and
  zero warning reproduces today's ``spot`` *results* bit-identically.
"""

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.errors import SimulationError
from repro.failures import FailureInjector, rack_split, resolve_topology
from repro.registry import create
from repro.scenario import ClusterSimEngine, Scenario
from repro.traces.schema import VMTraceRecord, VMTraceSet


def rng(seed=0):
    return np.random.default_rng(seed)


def vm(vm_id, cores=2, start=0, life=20, util=0.2, vm_class=VMClass.INTERACTIVE,
       memory_mb=None):
    return VMTraceRecord(
        vm_id=vm_id,
        vm_class=vm_class,
        cores=cores,
        memory_mb=memory_mb if memory_mb is not None else cores * 2048.0,
        start_interval=start,
        cpu_util=np.full(life, util),
    )


def scenario(traces, n_servers, failures, policy="proportional",
             cores_per_server=4.0, collectors=(), **failure_knobs):
    s = (
        Scenario(name="churn-test")
        .with_traces(VMTraceSet(traces))
        .with_policy(policy)
        .with_servers(n_servers)
        .with_server_shape(cores_per_server, cores_per_server * 2048.0)
    )
    if collectors:
        s = s.with_collectors(*collectors)
    if failures is not None:
        s = s.with_failures(
            "trace-schedule", events=list(failures), seed=0, **failure_knobs
        )
    return s


def build_and_run(*args, **kwargs):
    sim = ClusterSimEngine().build(scenario(*args, **kwargs))
    return sim, sim.run()


def revoke(t, server):
    return {"t": t, "action": "revoke", "server": server}


def arrive(t, server):
    return {"t": t, "action": "arrive", "server": server}


# -- topology resolution ----------------------------------------------------------


class TestTopology:
    def test_rack_split_contiguous_near_equal(self):
        ids = rack_split(10, 3)
        assert ids.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_rack_split_singletons_when_racks_exceed_servers(self):
        assert len(set(rack_split(5, 8).tolist())) == 5

    def test_groups_spec_with_singleton_default(self):
        ids = resolve_topology({"groups": [[0, 3], [1]]}, 5)
        assert ids[0] == ids[3]
        assert len({int(ids[i]) for i in (0, 1, 2, 4)}) == 4  # others distinct

    def test_group_index_out_of_range_rejected(self):
        with pytest.raises(SimulationError, match="only 3 servers"):
            resolve_topology({"groups": [[0, 5]]}, 3)

    def test_spec_validation(self):
        with pytest.raises(SimulationError, match="exactly one"):
            Scenario().with_topology()
        with pytest.raises(SimulationError, match="exactly one"):
            Scenario().with_topology(racks=2, groups=[[0]])
        with pytest.raises(SimulationError, match="racks must be >= 1"):
            Scenario().with_topology(racks=0)
        with pytest.raises(SimulationError, match="more than one topology group"):
            Scenario().with_topology(groups=[[0, 1], [1]])
        with pytest.raises(SimulationError, match="unknown topology keys"):
            Scenario(topology={"shelves": 3})

    def test_round_trips_and_changes_key(self):
        from repro.scenario import scenario_key

        s = (
            Scenario(name="topo")
            .with_workload("azure", n_vms=50, seed=1)
            .with_servers(4)
            .with_topology(racks=2)
        )
        spec = s.to_dict()
        assert spec["topology"] == {"racks": 2}
        assert Scenario.from_dict(spec) == s
        assert scenario_key(s) != scenario_key(s.without_topology())

    def test_topology_elided_when_absent(self):
        s = Scenario().with_workload("azure", n_vms=50, seed=1).with_servers(4)
        assert "topology" not in s.to_dict()


# -- correlated-spot --------------------------------------------------------------


class TestCorrelatedSpot:
    def test_group_members_revoked_together(self):
        model = create("failure", "correlated-spot", rate=0.01, racks=2)
        events = model.events(8, 2000.0, rng(3))
        by_time: dict[float, list[int]] = {}
        for ev in events:
            assert ev.action == "revoke"
            by_time.setdefault(ev.time, []).append(ev.server)
        racks = rack_split(8, 2)
        for servers in by_time.values():
            assert len({int(racks[s]) for s in servers}) == 1  # one group per burst
            assert sorted(servers) == sorted(
                np.nonzero(racks == racks[servers[0]])[0].tolist()
            )  # ... and the whole group

    def test_blast_radius_one_matches_spot_schedule(self):
        spot = create("failure", "spot", rate=0.01).events(30, 500.0, rng(7))
        corr = create("failure", "correlated-spot", rate=0.01, racks=30).events(
            30, 500.0, rng(7)
        )
        assert corr == spot

    def test_blast_radius_one_matches_spot_with_fraction(self):
        spot = create("failure", "spot", rate=0.05, fraction=0.5).events(
            20, 500.0, rng(5)
        )
        corr = create(
            "failure", "correlated-spot", rate=0.05, fraction=0.5, racks=20
        ).events(20, 500.0, rng(5))
        assert corr == spot

    def test_scenario_topology_overrides_model_racks(self):
        model = create("failure", "correlated-spot", rate=0.05, racks=1)
        groups = resolve_topology({"groups": [[0, 1], [2, 3]]}, 4)
        events = model.events_with_topology(4, 5000.0, rng(1), groups)
        times = sorted({ev.time for ev in events})
        # Two groups, two bursts of exactly two servers.
        assert len(events) == 4 and len(times) == 2

    def test_determinism(self):
        model = create("failure", "correlated-spot", rate=0.01, racks=4)
        assert model.events(16, 500.0, rng(9)) == model.events(16, 500.0, rng(9))

    def test_validation(self):
        with pytest.raises(SimulationError, match="rate"):
            create("failure", "correlated-spot", rate=0.0)
        with pytest.raises(SimulationError, match="racks"):
            create("failure", "correlated-spot", racks=0)

    def test_full_replay_blast_one_zero_warning_matches_spot(self):
        """The acceptance bar: correlated-spot degenerates to spot exactly."""
        base = (
            Scenario(name="degenerate")
            .with_workload("azure", n_vms=150, seed=3)
            .with_overcommitment(0.3)
        )
        spot = base.with_failures("spot", rate=0.01, seed=7).run()
        corr = base.with_failures(
            "correlated-spot", rate=0.01, racks=10_000, seed=7
        ).run()
        assert spot.sim == corr.sim


# -- elastic-pool -----------------------------------------------------------------


class TestElasticPool:
    def test_arrival_indices_contiguous_in_time_order(self):
        model = create("failure", "elastic-pool", rate=0.01, arrival_rate=0.05)
        events = model.events(10, 1000.0, rng(4))
        arrivals = sorted(
            (ev.time, ev.server) for ev in events if ev.action == "arrive"
        )
        assert arrivals
        assert [s for _, s in arrivals] == list(range(10, 10 + len(arrivals)))

    def test_arrived_servers_can_be_revoked(self):
        model = create("failure", "elastic-pool", rate=0.05, arrival_rate=0.1)
        events = model.events(5, 5000.0, rng(2))
        revoked = {ev.server for ev in events if ev.action == "revoke"}
        assert any(s >= 5 for s in revoked)
        # A server is revoked at most once.
        assert len([ev for ev in events if ev.action == "revoke"]) == len(revoked)

    def test_max_arrivals_caps_growth(self):
        model = create(
            "failure", "elastic-pool", rate=0.01, arrival_rate=1.0, max_arrivals=3
        )
        events = model.events(5, 1000.0, rng(1))
        assert sum(1 for ev in events if ev.action == "arrive") == 3

    def test_determinism(self):
        model = create("failure", "elastic-pool", rate=0.01, arrival_rate=0.05)
        assert model.events(10, 500.0, rng(6)) == model.events(10, 500.0, rng(6))

    def test_validation(self):
        with pytest.raises(SimulationError, match="arrival_rate"):
            create("failure", "elastic-pool", arrival_rate=0.0)


# -- server arrivals through the injector -----------------------------------------


class TestServerAttach:
    def test_late_vm_lands_on_arrived_server(self):
        # One 4-core server fully occupied by an on-demand VM (no
        # reclaimable pool); the late VM fits only on the server that
        # arrives at t=5.
        first = vm("first", cores=4, vm_class=VMClass.DELAY_INSENSITIVE)
        late = vm("late", cores=4, start=8, life=5)
        sim, res = build_and_run([first, late], 1, [arrive(5, 1)])
        assert res.n_rejected_deflatable == 0
        assert int(sim.vm_server[1]) == 1
        fi = res.collected["failure-injection"]
        assert fi["server_arrivals"] == 1
        assert fi["arrived_nominal_cores"] == pytest.approx(4.0)

    def test_nominal_capacity_counts_arrivals(self):
        _, res = build_and_run([vm("a")], 1, [arrive(5, 1), arrive(6, 2)])
        assert res.total_capacity_cores == pytest.approx(12.0)  # 1 + 2 arrivals @ 4

    def test_without_arrival_late_vm_is_rejected(self):
        first = vm("first", cores=4, vm_class=VMClass.DELAY_INSENSITIVE)
        late = vm("late", cores=4, start=8, life=5)
        _, res = build_and_run([first, late], 1, None)
        assert res.n_rejected_deflatable == 1

    def test_arrived_server_can_be_revoked(self):
        first = vm("first", cores=4, vm_class=VMClass.DELAY_INSENSITIVE)
        late = vm("late", cores=4, start=8, life=10)
        sim, res = build_and_run(
            [first, late], 1, [arrive(5, 1), revoke(12, 1)]
        )
        fi = res.collected["failure-injection"]
        assert fi["server_arrivals"] == 1 and fi["revocations"] == 1
        # The late VM was evacuated back... nowhere fits (server 0 is full
        # until t=20), so it is lost.
        assert fi["evacuation_lost"] == 1

    def test_noncontiguous_arrival_rejected(self):
        sim = ClusterSimEngine().build(scenario([vm("a")], 1, [arrive(5, 3)]))
        with pytest.raises(SimulationError, match="contiguous"):
            sim.run()

    def test_event_before_arrival_rejected(self):
        sim = ClusterSimEngine().build(
            scenario([vm("a")], 1, [revoke(2, 1), arrive(5, 1)])
        )
        with pytest.raises(SimulationError, match="before its arrival"):
            sim.run()

    def test_failure_log_records_arrivals(self):
        _, res = build_and_run(
            [vm("a")], 1, [arrive(5, 1)], collectors=("failure-log",)
        )
        assert (5.0, "arrive", 1, 1.0) in res.collected["failure-log"]


# -- warning-time drains ----------------------------------------------------------


class TestWarningDrain:
    def test_unbudgeted_drain_migrates_everything_at_warning(self):
        sim, res = build_and_run(
            [vm("a")], 2, [revoke(5, 0)], warning_intervals=3
        )
        fi = res.collected["failure-injection"]
        assert fi["evacuated"] == 1 and fi["deadline_killed"] == 0
        assert int(sim.vm_server[0]) == 1
        assert res.failure_probability == 0.0

    def test_budget_rations_migrations_one_per_tick(self):
        # Three 1-core VMs on server 0 (4 cores); warning 2, budget 1 VM:
        # migrations at t=5 and t=6, the straggler dies at the t=7 deadline.
        vms = [vm(f"v{i}", cores=1) for i in range(3)]
        spare = vm("spare", cores=1, start=0, life=1)  # keeps server 1 in play
        sim, res = build_and_run(
            [spare] + vms, 2, [revoke(5, 0)],
            warning_intervals=2, evacuation_budget=1,
        )
        fi = res.collected["failure-injection"]
        assert fi["evacuated"] == 2
        assert fi["deadline_killed"] == 1
        assert fi["evacuation_lost"] == 0
        assert res.n_preempted == 1  # the straggler
        # Lost work: the straggler's remaining (20 - 7) intervals x 1 core.
        assert fi["lost_core_intervals"] == pytest.approx(13.0)

    def test_cores_budget_lets_oversized_vm_through_first(self):
        # 3-core VM + 1-core VM under a 2-core/tick budget: the 3-core VM
        # exceeds the whole budget but moves as the tick's first migration;
        # the 1-core VM follows at the next tick.
        big = vm("big", cores=3)
        small = vm("small", cores=1)
        sim, res = build_and_run(
            [big, small], 3, [revoke(5, 0)],
            warning_intervals=3, evacuation_budget={"cores": 2.0},
        )
        fi = res.collected["failure-injection"]
        assert fi["evacuated"] == 2 and fi["deadline_killed"] == 0

    def test_draining_server_refuses_new_placements(self):
        # Server 0 drains from t=5; a VM arriving at t=6 has only server 0
        # free capacity-wise — it must be rejected, not placed on the
        # doomed server.  The blocker is on-demand, so the late VM cannot
        # deflate its way onto server 1 either.
        blocker = vm("blocker", cores=4, vm_class=VMClass.DELAY_INSENSITIVE)
        late = vm("late", cores=4, start=6, life=4)
        sim, res = build_and_run(
            [blocker, late], 2, [revoke(5, 0)],
            warning_intervals=3,
        )
        # blocker starts on server 0 (argmax tie-break), drains to server 1
        # at t=5; late then finds server 0 draining and server 1 full.
        assert int(sim.vm_server[0]) == 1
        assert res.n_rejected_deflatable == 1

    def test_failed_migration_retries_next_tick(self):
        # The only destination (server 0, held by an on-demand blocker) is
        # full until the blocker ends at t=6; the drain tick at t=5 finds
        # no room, the t=6 tick (after the departure) works.
        blocker = vm(
            "blocker", cores=4, start=0, life=6, vm_class=VMClass.DELAY_INSENSITIVE
        )
        mover = vm("mover", cores=4)
        sim, res = build_and_run(
            [blocker, mover], 2, [revoke(5, 1)],
            warning_intervals=4,
        )
        fi = res.collected["failure-injection"]
        assert int(sim.vm_server[1]) == 0
        assert fi["evacuated"] == 1 and fi["deadline_killed"] == 0
        # Full allocation throughout: the re-admission logs a 1.0 entry at
        # the migration instant, and no deflation ever happened.
        assert sim.allocation_history(1) == [(0.0, 1.0), (6.0, 1.0)]

    def test_drained_deflatable_pool_reclaims_nothing(self):
        # Server 0 hosts a 3-core deflatable VM squeezed by a 2-core
        # on-demand one (1 core reclaimed).  Server 1 arrives at t=3 and
        # takes a memory-heavy blocker, so at the t=5 drain tick only the
        # deflatable VM finds a destination.  The on-demand VM keeps
        # server 0 running with nothing left to deflate: its reclaim is
        # zero, so a dip to 1.6 cores at t=6 is a 2-core overrun, not a
        # 1-core fit against a stale reclaim.
        d = vm("d", cores=3, memory_mb=512)
        od = vm("od", cores=2, memory_mb=2048, vm_class=VMClass.DELAY_INSENSITIVE)
        blocker = vm("x", cores=1, start=4, memory_mb=7168,
                     vm_class=VMClass.DELAY_INSENSITIVE)
        dip = {"t": 6, "action": "dip", "server": 0, "scale": 0.4, "duration": 1}
        sim = ClusterSimEngine().build(scenario(
            [d, od, blocker], 1, [arrive(3, 1), revoke(5, 0), dip],
            warning_intervals=3,
        ))
        sim.run_until(5.5)
        assert min(f for _, f in sim.allocation_history(0)) < 1.0  # deflated
        assert int(sim.vm_server[0]) == 1 and int(sim.vm_server[1]) == 0
        assert sim.reclaimed[0].tolist() == [0.0, 0.0]
        fi = sim.run().collected["failure-injection"]
        assert fi["capacity_dips"] == 1 and fi["capacity_overruns"] == 1

    def test_residents_keep_running_until_deadline(self):
        # With no destination at all, the VM runs on the draining server
        # through the whole warning window and dies exactly at deadline.
        sim, res = build_and_run(
            [vm("a")], 1, [revoke(5, 0)], warning_intervals=3
        )
        fi = res.collected["failure-injection"]
        assert fi["deadline_killed"] == 1
        assert sim.allocation_history(0) == [(0.0, 1.0), (8.0, 0.0)]
        assert fi["lost_core_intervals"] == pytest.approx((20 - 8) * 2.0)

    def test_vm_ending_during_drain_is_not_killed(self):
        sim, res = build_and_run(
            [vm("a", life=7)], 1, [revoke(5, 0)], warning_intervals=5
        )
        fi = res.collected["failure-injection"]
        assert fi["deadline_killed"] == 0 and fi["evacuated"] == 0
        assert res.n_preempted == 0  # ended naturally at t=7, before t=10

    def test_on_demand_stragglers_counted_separately(self):
        batch = vm("batch", cores=4, vm_class=VMClass.DELAY_INSENSITIVE)
        _, res = build_and_run(
            [batch], 1, [revoke(5, 0)], warning_intervals=2
        )
        fi = res.collected["failure-injection"]
        assert fi["deadline_killed"] == 1 and fi["on_demand_lost"] == 1
        assert res.failure_probability == 0.0  # no deflatable VM failed

    def test_deadline_hook_and_log(self):
        _, res = build_and_run(
            [vm("a")], 1, [revoke(5, 0)], warning_intervals=2,
            collectors=("failure-log",),
        )
        log = res.collected["failure-log"]
        assert (5.0, "revoke", 0, 0.0) in log  # the warning
        assert (7.0, "deadline", 0, 0.0) in log  # the reclamation

    def test_validation(self):
        with pytest.raises(SimulationError, match="warning_intervals must be > 0"):
            FailureInjector.from_spec({"model": "spot", "warning_intervals": 0})
        with pytest.raises(SimulationError, match='response="evacuate"'):
            FailureInjector.from_spec(
                {"model": "spot", "warning_intervals": 2, "response": "kill"}
            )
        with pytest.raises(SimulationError, match="needs warning_intervals"):
            FailureInjector.from_spec({"model": "spot", "evacuation_budget": 2})
        with pytest.raises(SimulationError, match="exactly one"):
            FailureInjector.from_spec(
                {"model": "spot", "warning_intervals": 2,
                 "evacuation_budget": {"vms": 1, "cores": 2.0}}
            )
        with pytest.raises(SimulationError, match=">= 1"):
            FailureInjector.from_spec(
                {"model": "spot", "warning_intervals": 2, "evacuation_budget": 0}
            )


# -- sweep determinism ------------------------------------------------------------


class TestSweepDeterminism:
    def test_churn_grid_serial_parallel_identical(self):
        from repro.scenario import run_sweep

        base = (
            Scenario(name="churn-det")
            .with_workload("azure", n_vms=150, seed=11)
            .with_overcommitment(0.3)
        )
        grid = [
            base.with_topology(racks=3).with_failures(
                "correlated-spot", rate=0.01, seed=7
            ),
            base.with_failures(
                "spot", rate=0.01, seed=7, warning_intervals=2, evacuation_budget=1
            ),
            base.with_failures("elastic-pool", rate=0.01, arrival_rate=0.05, seed=7),
        ]
        serial = run_sweep(grid)
        parallel = run_sweep(grid, workers=2)
        for a, b in zip(serial, parallel):
            assert a == b


# -- the churn experiment ---------------------------------------------------------


class TestChurnExperiment:
    def test_churn_frontier_orders_the_regimes(self):
        from repro.experiments.churn import run

        result = run("small")
        assert len(result.rows) == 8  # 4 regimes x 2 OC levels
        by_cell = {(r["regime"], r["overcommit_pct"]): r for r in result.rows}
        for oc in (0.0, 30.0):
            independent = by_cell[("independent", oc)]
            correlated = by_cell[("correlated", oc)]
            elastic = by_cell[("elastic", oc)]
            warned = by_cell[("correlated+warning", oc)]
            # Correlated bursts hurt availability more than the same
            # hazard volume arriving independently; elastic arrivals
            # (independent hazard + refill) repair the frontier
            # (deterministic for the pinned seed).
            assert correlated["availability"] < independent["availability"]
            assert elastic["availability"] >= independent["availability"]
            assert elastic["server_arrivals"] > 0
            assert warned["deadline_killed"] > 0
            assert independent["deadline_killed"] == 0
