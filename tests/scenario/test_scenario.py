"""Tests for the declarative Scenario builder."""

import math

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.errors import SimulationError, UnknownComponentError
from repro.scenario import Scenario
from repro.traces.schema import VMTraceRecord, VMTraceSet


def tiny_traces():
    return VMTraceSet(
        [
            VMTraceRecord(
                vm_id="a",
                vm_class=VMClass.INTERACTIVE,
                cores=4,
                memory_mb=8192,
                start_interval=0,
                cpu_util=np.full(10, 0.5),
            )
        ]
    )


class TestBuilder:
    def test_fluent_methods_return_new_scenarios(self):
        base = Scenario()
        modified = base.with_policy("priority").with_servers(40)
        assert base.policy == "proportional" and base.n_servers is None
        assert modified.policy == "priority" and modified.n_servers == 40

    def test_with_workload_builds_spec(self):
        s = Scenario().with_workload("azure", n_vms=100, seed=3)
        assert s.workload == {"source": "azure", "n_vms": 100, "seed": 3}

    def test_with_workload_validates_source(self):
        with pytest.raises(UnknownComponentError, match="azure"):
            Scenario().with_workload("not-a-workload")

    def test_component_setters_validate_names(self):
        with pytest.raises(UnknownComponentError):
            Scenario().with_scorer("psychic")
        with pytest.raises(UnknownComponentError):
            Scenario().with_admission("bouncer")
        with pytest.raises(UnknownComponentError):
            Scenario().with_collectors("nope")
        with pytest.raises(UnknownComponentError):
            Scenario().with_engine("warp")

    def test_servers_and_overcommitment_mutually_exclusive(self):
        s = Scenario().with_servers(10).with_overcommitment(0.4)
        assert s.n_servers is None and s.overcommitment == 0.4
        s2 = s.with_servers(8)
        assert s2.n_servers == 8 and s2.overcommitment is None
        with pytest.raises(SimulationError):
            Scenario(n_servers=4, overcommitment=0.2)

    def test_workload_and_traces_mutually_exclusive(self):
        with pytest.raises(SimulationError):
            Scenario(workload={"source": "azure"}, traces=tiny_traces())
        s = Scenario().with_workload("azure").with_traces(tiny_traces())
        assert s.workload is None and s.traces is not None

    def test_negative_overcommitment_rejected(self):
        with pytest.raises(SimulationError):
            Scenario().with_overcommitment(-0.1)

    @pytest.mark.parametrize("oc", [math.inf, math.nan])
    def test_non_finite_overcommitment_rejected(self, oc):
        with pytest.raises(SimulationError, match="finite"):
            Scenario(overcommitment=oc)
        with pytest.raises(SimulationError, match="finite"):
            Scenario().with_overcommitment(oc)

    def test_describe_mentions_key_knobs(self):
        s = Scenario(name="x").with_workload("azure").with_policy("priority").with_servers(7)
        text = s.describe()
        assert "x" in text and "azure" in text and "priority" in text and "7" in text


class TestDictRoundTrip:
    def test_roundtrip_preserves_equality(self):
        s = (
            Scenario(name="rt")
            .with_workload("azure", n_vms=50, seed=2)
            .with_policy("deterministic")
            .with_overcommitment(0.3)
            .with_partitions(4)
            .with_collectors("event-counts", "timeline")
            .with_scorer("most-available")
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_to_dict_elides_defaults(self):
        d = Scenario(name="d").with_workload("azure").to_dict()
        assert d == {"name": "d", "workload": {"source": "azure"}}

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SimulationError, match="unknown scenario keys"):
            Scenario.from_dict({"polcy": "priority"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("workload", 5),
            ("failures", [1, 2]),
            ("topology", "racks"),
            ("collectors", 7),
            ("overcommitment", "x"),
            ("n_servers", "4"),
            ("cores_per_server", None),
            ("min_fraction", True),
        ],
    )
    def test_from_dict_wrong_types_name_the_key(self, key, value):
        # These raised bare TypeErrors (from dict(), tuple() or a <=).
        with pytest.raises(SimulationError, match=key):
            Scenario.from_dict({key: value})

    def test_from_dict_rejects_a_non_dict(self):
        with pytest.raises(SimulationError, match="dict"):
            Scenario.from_dict(["policy", "priority"])

    def test_workload_spec_requires_source(self):
        with pytest.raises(SimulationError, match="source"):
            Scenario.from_dict({"workload": {"n_vms": 10}})

    def test_traces_do_not_serialize(self):
        with pytest.raises(SimulationError):
            Scenario().with_traces(tiny_traces()).to_dict()

    def test_to_dict_never_aliases_internal_state(self):
        s = Scenario().with_workload("azure", n_vms=5)
        s.to_dict()["workload"]["n_vms"] = 999
        assert s.workload["n_vms"] == 5

    def test_constructor_copies_workload_dict(self):
        spec = {"source": "azure", "n_vms": 5}
        s = Scenario(workload=spec)
        spec["n_vms"] = 999
        assert s.workload["n_vms"] == 5


class TestFailureFields:
    def test_with_failures_builds_spec(self):
        s = Scenario().with_failures("spot", rate=0.01, seed=3, response="kill")
        assert s.failures == {
            "model": "spot",
            "rate": 0.01,
            "seed": 3,
            "response": "kill",
        }

    def test_with_failures_validates_model_name(self):
        with pytest.raises(UnknownComponentError, match="spot"):
            Scenario().with_failures("asteroid")

    def test_with_failures_validates_params_eagerly(self):
        # A bad spec must fail at declaration time, not mid-sweep.
        with pytest.raises(SimulationError, match="rate"):
            Scenario().with_failures("spot", rate=-1)
        with pytest.raises(SimulationError, match="response"):
            Scenario().with_failures("spot", response="panic")
        with pytest.raises(TypeError):
            Scenario().with_failures("spot", warp_factor=9)

    def test_failure_spec_requires_model_key(self):
        with pytest.raises(SimulationError, match="model"):
            Scenario(failures={"rate": 0.01})

    def test_roundtrip_identity_with_failures(self):
        s = (
            Scenario(name="rt-fail")
            .with_workload("azure", n_vms=50, seed=2)
            .with_policy("priority")
            .with_overcommitment(0.4)
            .with_failures(
                "trace-schedule",
                events=[{"t": 5, "action": "revoke", "server": 0}],
                response="kill",
                restart_delay=2,
            )
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_failure_free_to_dict_elides_failures(self):
        d = Scenario(name="d").with_workload("azure").to_dict()
        assert "failures" not in d

    def test_without_failures_drops_spec(self):
        s = Scenario().with_failures("spot", rate=0.01)
        assert s.without_failures().failures is None

    def test_failures_dict_never_aliased(self):
        spec = {"model": "spot", "rate": 0.01}
        s = Scenario(failures=spec)
        spec["rate"] = 9.9
        assert s.failures["rate"] == 0.01
        s.to_dict()["failures"]["rate"] = 9.9
        assert s.failures["rate"] == 0.01

    def test_nested_failure_payloads_never_aliased(self):
        # trace-schedule specs carry nested mutable events; a frozen
        # scenario's cache key must survive caller-side mutation of them.
        events = [{"t": 5, "action": "revoke", "server": 0}]
        s = Scenario().with_failures("trace-schedule", events=events)
        events[0]["t"] = 999
        assert s.failures["events"][0]["t"] == 5
        s.to_dict()["failures"]["events"][0]["t"] = 999
        assert s.failures["events"][0]["t"] == 5

    def test_describe_mentions_failures(self):
        s = Scenario(name="x").with_workload("azure").with_failures("spot")
        assert "failures=spot" in s.describe()


class TestSimConfig:
    def test_sim_config_carries_every_knob(self):
        s = (
            Scenario()
            .with_policy("priority")
            .with_server_shape(24, 64 * 1024)
            .with_partitions(3)
            .with_min_fraction(0.1)
            .with_admission("rigid")
            .with_scorer("most-available")
            .with_collectors("timeline")
        )
        cfg = s.sim_config(n_servers=5)
        assert cfg.n_servers == 5
        assert cfg.policy == "priority"
        assert cfg.cores_per_server == 24
        assert cfg.memory_per_server_mb == 64 * 1024
        assert cfg.partitioned and cfg.n_partitions == 3
        assert cfg.min_fraction == 0.1
        assert cfg.admission == "rigid"
        assert cfg.scorer == "most-available"
        assert cfg.collectors == ("timeline",)
