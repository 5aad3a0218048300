"""Injector semantics on hand-built traces with explicit schedules.

Every test drives a tiny, fully-controlled cluster through the
``trace-schedule`` model so outcomes are exact: which VM lands where, what
the allocation history records, and what the summary tallies.  Tests that
need simulator internals (residents, histories) go through
``ClusterSimEngine.build()`` — the blessed pre-run-surgery flow.
"""

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.errors import SimulationError
from repro.failures import FailureInjector
from repro.scenario import ClusterSimEngine, Scenario
from repro.traces.schema import VMTraceRecord, VMTraceSet


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
        Scenario(name="inj-test")
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
    """(simulator, ClusterSimResult) for a scenario built from the args."""
    sim = ClusterSimEngine().build(scenario(*args, **kwargs))
    return sim, sim.run()


def revoke(t, server):
    return {"t": t, "action": "revoke", "server": server}


def dip(t, server, scale, duration):
    return {"t": t, "action": "dip", "server": server, "scale": scale, "duration": duration}


class TestRevocationEvacuate:
    def test_resident_migrates_to_surviving_server(self):
        # One VM on a 2-server cluster; its server (0, the argmax tie-break)
        # is revoked mid-life and the VM must continue on server 1.
        sim, res = build_and_run([vm("a")], 2, [revoke(5, 0)])
        fi = res.collected["failure-injection"]
        assert fi["revocations"] == 1 and fi["evacuated"] == 1
        assert fi["evacuation_lost"] == 0 and fi["lost_core_intervals"] == 0.0
        assert int(sim.vm_server[0]) == 1
        assert res.n_preempted == 0
        assert res.failure_probability == 0.0
        # Absorbed work = remaining lifetime x cores = (20 - 5) * 2.
        assert fi["absorbed_core_intervals"] == pytest.approx(30.0)

    def test_unplaceable_resident_is_lost(self):
        sim, res = build_and_run([vm("a")], 1, [revoke(5, 0)])
        fi = res.collected["failure-injection"]
        assert fi["evacuated"] == 0 and fi["evacuation_lost"] == 1
        assert fi["lost_core_intervals"] == pytest.approx(30.0)
        assert res.n_preempted == 1
        assert res.failure_probability == 1.0
        assert sim.allocation_history(0) == [(0.0, 1.0), (5.0, 0.0)]

    def test_on_demand_losses_not_counted_as_deflatable_failures(self):
        batch = vm("b", vm_class=VMClass.DELAY_INSENSITIVE)
        sim, res = build_and_run([batch], 1, [revoke(5, 0)])
        fi = res.collected["failure-injection"]
        assert fi["on_demand_lost"] == 1
        # Ended early like any other victim, but not a deflatable failure.
        assert sim.vm_preempted[0]
        assert res.n_preempted == 0
        assert res.failure_probability == 0.0  # no deflatable VM failed

    def test_revoked_server_rejects_later_arrivals(self):
        late = vm("late", start=10, life=5)
        _, res = build_and_run([late], 1, [revoke(5, 0)])
        assert res.n_rejected_deflatable == 1

    def test_evacuation_deflates_destination(self):
        # Two 3-core VMs on separate 4-core servers; after revoking server
        # 1's host, both must share one server, deflated (6 cores into 4).
        sim, res = build_and_run([vm("a", cores=3), vm("b", cores=3)], 2, [revoke(5, 1)])
        fi = res.collected["failure-injection"]
        assert fi["evacuated"] == 1
        assert int(sim.vm_server[0]) == 0 and int(sim.vm_server[1]) == 0
        assert not sim.vm_preempted[0] and not sim.vm_preempted[1]
        # Deflation shows up in the allocation histories.
        fracs = {f for _, f in sim.allocation_history(0)} | {
            f for _, f in sim.allocation_history(1)
        }
        assert any(f < 1.0 for f in fracs)
        assert res.throughput_loss == 0.0  # low utilization: deflation absorbed it


class TestRevocationKill:
    def test_kill_and_requeue_records_downtime(self):
        sim, res = build_and_run(
            [vm("a")], 2, [revoke(5, 0)], response="kill", restart_delay=3
        )
        fi = res.collected["failure-injection"]
        assert fi["killed"] == 1 and fi["recovered"] == 1
        assert fi["downtime_intervals"] == pytest.approx(3.0)
        # History: admitted at 0, killed at 5, restarted at 8.
        assert sim.allocation_history(0) == [(0.0, 1.0), (5.0, 0.0), (8.0, 1.0)]
        assert res.n_preempted == 0  # it recovered
        # Downtime is lost work; the rest of the lifetime is absorbed.
        assert fi["lost_core_intervals"] == pytest.approx(3 * 2.0)
        assert fi["absorbed_core_intervals"] == pytest.approx((20 - 8) * 2.0)

    def test_kill_without_requeue_loses_the_vm(self):
        _, res = build_and_run(
            [vm("a")], 2, [revoke(5, 0)], response="kill", restart_delay=None
        )
        fi = res.collected["failure-injection"]
        assert fi["killed"] == 1 and fi["recovered"] == 0
        assert fi["lost_core_intervals"] == pytest.approx(30.0)
        assert res.n_preempted == 1

    def test_requeue_past_lifetime_end_is_lost(self):
        _, res = build_and_run(
            [vm("a", life=8)], 2, [revoke(5, 0)], response="kill", restart_delay=10
        )
        fi = res.collected["failure-injection"]
        assert fi["killed"] == 1 and fi["recovered"] == 0
        assert fi["lost_core_intervals"] == pytest.approx(3 * 2.0)


class TestCapacityDips:
    def test_dip_deflates_then_reinflates(self):
        # A 4-core VM alone on a 4-core server; a 50% dip must halve its
        # allocation for exactly the dip window.
        sim, res = build_and_run([vm("a", cores=4)], 1, [dip(5, 0, 0.5, 5)])
        assert sim.allocation_history(0) == [(0.0, 1.0), (5.0, 0.5), (10.0, 1.0)]
        fi = res.collected["failure-injection"]
        assert fi["capacity_dips"] == 1 and fi["capacity_overruns"] == 0
        assert res.failure_probability == 0.0

    def test_dip_below_floors_counts_overrun(self):
        # min_fraction floors make a 95% dip unsatisfiable.
        s = scenario([vm("a", cores=4)], 1, [dip(5, 0, 0.05, 5)]).with_min_fraction(0.5)
        sim = ClusterSimEngine().build(s)
        res = sim.run()
        assert res.collected["failure-injection"]["capacity_overruns"] == 1
        assert res.n_reclaim_failures >= 1

    def test_preemption_baseline_evicts_lowest_priority(self):
        # Two deflatable VMs on one 4-core server under the preemption
        # baseline; a 50% dip leaves room for only one of them, and the
        # lower-priority VM (lower p95 utilization) must be the victim.
        low = vm("low", util=0.2)   # p95 < 0.33 -> lowest priority
        high = vm("high", util=0.7)  # p95 in [0.66, 0.80)
        sim, res = build_and_run([low, high], 1, [dip(5, 0, 0.5, 5)], policy="preemption")
        assert sim.vm_preempted[0] and not sim.vm_preempted[1]
        assert res.collected["failure-injection"]["capacity_overruns"] == 0

    def test_dip_on_revoked_server_is_ignored(self):
        _, res = build_and_run([vm("a")], 2, [revoke(5, 0), dip(6, 0, 0.5, 5)])
        assert res.collected["failure-injection"]["capacity_dips"] == 0

    def test_overlapping_dips_rejected_loudly(self):
        sim = ClusterSimEngine().build(
            scenario([vm("a")], 1, [dip(5, 0, 0.5, 10), dip(8, 0, 0.3, 10)])
        )
        with pytest.raises(SimulationError, match="overlapping capacity dips"):
            sim.run()

    def test_back_to_back_dips_allowed(self):
        sim, res = build_and_run([vm("a")], 1, [dip(5, 0, 0.5, 3), dip(8, 0, 0.5, 3)])
        assert res.collected["failure-injection"]["capacity_dips"] == 2

    def test_back_to_back_dips_hand_over_cleanly(self):
        # The first dip ends exactly when the second starts: the ending dip
        # must not cancel the starting one (dip ends process first).  A
        # 4-core VM on a 4-core server must stay deflated across t=15.
        sim, res = build_and_run(
            [vm("a", cores=4)], 1, [dip(5, 0, 0.5, 10), dip(15, 0, 0.5, 10)]
        )
        hist = sim.allocation_history(0)
        # Reinflated and immediately re-deflated at the handover; the VM
        # ends (t=20) still inside the second dip.
        assert hist == [(0.0, 1.0), (5.0, 0.5), (15.0, 1.0), (15.0, 0.5)]
        assert res.collected["failure-injection"]["capacity_dips"] == 2

    def test_full_outage_dip_rejected(self):
        with pytest.raises(SimulationError, match="scale"):
            scenario([vm("a")], 1, [dip(5, 0, 0.0, 3)])


class TestCascades:
    def test_zero_floor_never_places_on_revoked_server(self):
        # With min_fraction 0 a deflatable VM's own reclaimable pool covers
        # its whole demand, so capacity alone cannot rule out a dead server
        # — the liveness mask must.  Before the fix this produced NaN
        # placement scores (divide by zero capacity).
        import warnings

        s = scenario([vm("a"), vm("late", start=8, life=5)], 2, [revoke(5, 0)])
        s = s.with_min_fraction(0.0)
        sim = ClusterSimEngine().build(s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails the test
            sim.run()
        assert int(sim.vm_server[0]) == 1  # evacuated to the live server
        assert int(sim.vm_server[1]) == 1  # late arrival avoided the dead one

    def test_preemption_cascade_counts_as_lost(self):
        # Preemption baseline: server 0 hosts a 4-core on-demand VM, server
        # 1 a 2-core deflatable one.  Revoking server 0 re-places the
        # on-demand VM on server 1, preempting the deflatable resident —
        # collateral damage that must be tallied as failure-caused loss.
        batch = vm("batch", cores=4, vm_class=VMClass.DELAY_INSENSITIVE)
        defl = vm("defl", cores=2)
        sim, res = build_and_run([batch, defl], 2, [revoke(5, 0)], policy="preemption")
        fi = res.collected["failure-injection"]
        assert int(sim.vm_server[0]) == 1
        assert sim.vm_preempted[1]
        assert fi["cascade_preemptions"] == 1
        # The victim's remaining work: (20 - 5) intervals x 2 cores.
        assert fi["lost_core_intervals"] == pytest.approx(30.0)


class TestCollectorsAndResult:
    def test_failure_log_collector_records_events(self):
        _, res = build_and_run(
            [vm("a")], 2, [revoke(5, 0), dip(7, 1, 0.5, 3)],
            collectors=("failure-log",),
        )
        log = res.collected["failure-log"]
        assert (5.0, "revoke", 0, 0.0) in log
        assert (7.0, "dip", 1, 0.5) in log
        assert (10.0, "dip", 1, 1.0) in log  # restoration

    def test_no_injector_no_failure_payload(self):
        _, res = build_and_run([vm("a")], 2, None)
        assert "failure-injection" not in res.collected

    def test_total_capacity_reports_nominal_cores(self):
        _, res = build_and_run([vm("a")], 2, [revoke(5, 0)])
        assert res.total_capacity_cores == pytest.approx(8.0)


class TestInjectorSpec:
    def test_from_spec_splits_injector_and_model_params(self):
        inj = FailureInjector.from_spec(
            {"model": "spot", "rate": 0.01, "seed": 3, "response": "kill"}
        )
        assert inj.model.rate == 0.01
        assert inj.seed == 3 and inj.response == "kill"

    def test_from_spec_requires_model(self):
        with pytest.raises(SimulationError, match="model"):
            FailureInjector.from_spec({"rate": 0.01})

    def test_invalid_response_rejected(self):
        with pytest.raises(SimulationError, match="response"):
            FailureInjector.from_spec({"model": "spot", "response": "panic"})

    def test_unknown_model_param_fails_loudly(self):
        with pytest.raises(TypeError):
            FailureInjector.from_spec({"model": "spot", "warp_factor": 9})
