"""`Scenario.with_checkpoint`: the declarative face of SimSnapshot.

A checkpoint is live simulator state riding on an otherwise-declarative
scenario: it pickles across sweep workers but never serializes to the
wire format, keys the sweep cache through its own fingerprint, and only
the engine it froze (``cluster-sim``) accepts it.  Restore refusals are
loud and specific — a snapshot silently restored into the wrong
configuration would fake bit-equivalence instead of upholding it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.scenario import (
    ClusterSimEngine,
    Scenario,
    SimSnapshot,
    SweepCache,
    cacheable,
    resolve_cluster,
    run_sweep,
    scenario_key,
)
from repro.simulator.components import EventCountCollector
from repro.simulator.sharded import plan_shards


@pytest.fixture(scope="module")
def base():
    return (
        Scenario(name="ckpt")
        .with_workload("azure", n_vms=200, seed=31)
        .with_overcommitment(0.4)
        .with_policy("proportional")
        .with_collectors("event-counts")
    )


@pytest.fixture(scope="module")
def boundary(base):
    traces, _ = resolve_cluster(base)
    return 0.4 * float(traces.horizon())


def snap_at(scenario, at) -> SimSnapshot:
    sim = ClusterSimEngine().build(scenario)
    sim.run_until(at)
    return sim.snapshot()


@pytest.fixture(scope="module")
def snapshot(base, boundary):
    return snap_at(base, boundary)


class TestBuilder:
    def test_with_checkpoint_round_trip(self, base, snapshot):
        warm = base.with_checkpoint(snapshot)
        assert warm.checkpoint is snapshot
        assert base.checkpoint is None  # builder copies, never mutates
        assert warm.without_checkpoint() == base

    def test_rejects_non_snapshots(self, base):
        with pytest.raises(SimulationError, match="SimSnapshot"):
            base.with_checkpoint({"at": 10.0})

    def test_describe_names_the_boundary(self, base, snapshot):
        text = base.with_checkpoint(snapshot).describe()
        assert f"checkpoint@t={snapshot.at:g}" in text

    def test_to_dict_refuses(self, base, snapshot):
        with pytest.raises(SimulationError, match="without_checkpoint"):
            base.with_checkpoint(snapshot).to_dict()
        # the declarative remainder still serializes
        assert Scenario.from_dict(base.to_dict()) == base

    def test_from_dict_rejects_a_checkpoint_key(self, base):
        spec = dict(base.to_dict(), checkpoint="anything")
        with pytest.raises(SimulationError, match="checkpoint"):
            Scenario.from_dict(spec)


class TestCacheKeys:
    def test_checkpoint_changes_the_key(self, base, snapshot):
        assert cacheable(base.with_checkpoint(snapshot))
        assert scenario_key(base.with_checkpoint(snapshot)) != scenario_key(base)

    def test_different_prefixes_never_collide(self, base, boundary, snapshot):
        other = snap_at(base, boundary / 2)
        assert scenario_key(base.with_checkpoint(snapshot)) != scenario_key(
            base.with_checkpoint(other)
        )

    def test_same_snapshot_same_key(self, base, boundary, snapshot):
        rebuilt = snap_at(base, boundary)  # independent build, same bits
        assert scenario_key(base.with_checkpoint(snapshot)) == scenario_key(
            base.with_checkpoint(rebuilt)
        )

    def test_disk_cache_round_trip(self, base, boundary, snapshot, tmp_path):
        """A disk hit returns the cold bits; the snapshot itself does not
        serialize, so the hit's scenario carries ``checkpoint is None``."""
        warm = base.with_checkpoint(snapshot)
        cold = base.run()
        cache = SweepCache(tmp_path / "cache")
        first = run_sweep([warm], cache=cache)
        assert first[0].sim == cold.sim
        hit = SweepCache(tmp_path / "cache").get(warm)
        assert hit is not None
        assert hit.sim == cold.sim
        assert hit.scenario.checkpoint is None
        assert hit.scenario == warm.without_checkpoint()

    def test_memory_cache_returns_the_live_result(self, base, snapshot):
        warm = base.with_checkpoint(snapshot)
        cache = SweepCache()
        first = run_sweep([warm], cache=cache)
        assert cache.get(warm).sim == first[0].sim


class TestEngineSurface:
    def test_engine_build_resumes_from_the_checkpoint(self, base, boundary, snapshot):
        assert base.with_checkpoint(snapshot).run().sim == base.run().sim

    def test_sharded_engine_refuses_checkpoints(self, base, snapshot):
        scenario = base.with_partitions().with_checkpoint(snap_at(base.with_partitions(), 20.0))
        with pytest.raises(SimulationError, match="flat simulator"):
            plan_shards(scenario.with_engine("sharded"))


class TestRestoreRefusals:
    def test_unknown_version(self, base, snapshot):
        # The retired v1 layout and a future one are refused, never misread.
        for version in (1, 99):
            other = dataclasses.replace(snapshot, version=version)
            sim = ClusterSimEngine().build(base)
            with pytest.raises(SimulationError, match=f"v{version} "):
                sim.restore(other)

    def test_not_a_snapshot(self, base):
        sim = ClusterSimEngine().build(base)
        with pytest.raises(SimulationError, match="not a SimSnapshot"):
            sim.restore({"version": 1})

    def test_config_mismatch(self, base, snapshot):
        sim = ClusterSimEngine().build(base.with_min_fraction(0.10))
        with pytest.raises(SimulationError, match="config mismatch"):
            sim.restore(snapshot)

    def test_trace_count_mismatch(self, base, snapshot):
        other = base.with_workload("azure", n_vms=150, seed=31).with_servers(
            snapshot.config.n_servers
        )
        sim = ClusterSimEngine().build(other)
        with pytest.raises(SimulationError, match="VMs"):
            sim.restore(snapshot)

    def test_collector_set_mismatch(self, base, boundary, snapshot):
        # Collectors are config, so a differing set is a config mismatch.
        bare = base.with_collectors()
        sim = ClusterSimEngine().build(bare.with_servers(snapshot.config.n_servers))
        with pytest.raises(SimulationError, match="config mismatch"):
            sim.restore(snapshot)

    def test_open_stream_refused(self, base, boundary, snapshot):
        sim = ClusterSimEngine().build(base)
        sim.run_until(boundary / 2)
        with pytest.raises(SimulationError, match="fresh"):
            sim.restore(snapshot)

    def test_opted_out_collector_refuses_capture(self, base, boundary, monkeypatch):
        """`snapshottable = False` (the lint-enforced opt-out) fails the
        snapshot eagerly, naming the collector."""
        monkeypatch.setattr(EventCountCollector, "snapshottable", False)
        sim = ClusterSimEngine().build(base)
        sim.run_until(boundary)
        with pytest.raises(SimulationError, match="event-counts"):
            sim.snapshot()
