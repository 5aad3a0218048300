"""SweepCache: memoized sweeps keyed on canonical scenario hashes."""

import dataclasses

import pytest

from repro.scenario import Scenario, SweepCache, cacheable, run_sweep, scenario_key
from repro.scenario.cache import _decode, _encode
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace


def base_scenario(**over):
    s = Scenario(name="cache-test").with_workload("azure", n_vms=60, seed=5)
    s = s.with_policy(over.pop("policy", "proportional"))
    s = s.with_servers(over.pop("n_servers", 4))
    for k, v in over.items():
        s = s._replace(**{k: v})
    return s


class TestKeys:
    def test_key_is_stable(self):
        assert scenario_key(base_scenario()) == scenario_key(base_scenario())

    def test_every_field_changes_the_key(self):
        base = base_scenario()
        variants = [
            base.with_policy("priority"),
            base.with_servers(5),
            base.with_overcommitment(0.3),
            base.with_workload("azure", n_vms=61, seed=5),
            base.with_workload("azure", n_vms=60, seed=6),
            base.with_server_shape(32, 64 * 1024),
            base.with_partitions(),
            base.with_min_fraction(0.2),
            base.with_admission("rigid"),
            base.with_scorer("most-available"),
            base.with_collectors("event-counts"),
            base.named("other-name"),
            base.with_engine("sharded"),
            base.with_topology(racks=2),
        ]
        keys = {scenario_key(v) for v in variants}
        assert len(keys) == len(variants), "every field must feed the key"
        assert scenario_key(base) not in keys

    def test_explicit_traces_not_cacheable(self):
        traces = synthesize_azure_trace(AzureTraceConfig(n_vms=10, seed=1))
        s = Scenario().with_traces(traces).with_servers(2)
        assert not cacheable(s)
        cache = SweepCache()
        assert cache.get(s) is None
        assert cache.skipped == 1


class TestRoundTrip:
    def test_encode_decode_preserves_tuples_and_numpy(self):
        import numpy as np

        payload = {
            "points": [(0.0, 1.5), (2.0, 0.25)],
            "arr": np.arange(3, dtype=np.float64),
            "count": np.int64(7),
            "flag": np.bool_(True),
            "nested": {"t": (1, (2, 3))},
        }
        decoded = _decode(_encode(payload))
        assert decoded["points"] == [(0.0, 1.5), (2.0, 0.25)]
        assert decoded["nested"] == {"t": (1, (2, 3))}
        assert decoded["count"] == 7 and decoded["flag"] is True
        assert decoded["arr"].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_warm_cache_identical_to_cold_run(self, tmp_path, backend):
        cache = SweepCache(tmp_path / "sweeps" if backend == "disk" else None)
        grid = [
            base_scenario(policy=p).with_collectors("event-counts", "timeline")
            for p in ("proportional", "preemption")
        ]
        cold = run_sweep(grid, cache=cache)
        assert cache.hits == 0 and cache.misses == len(grid)
        warm = run_sweep(grid, cache=cache)
        assert cache.hits == len(grid)
        for c, w in zip(cold, warm):
            assert c.scenario == w.scenario
            assert c.sim == w.sim  # bit-identical, collectors included

    def test_disk_cache_survives_new_instance(self, tmp_path):
        path = tmp_path / "sweeps"
        grid = [base_scenario()]
        cold = run_sweep(grid, cache=SweepCache(path))
        fresh = SweepCache(path)
        assert len(fresh) == 1
        warm = run_sweep(grid, cache=fresh)
        assert fresh.hits == 1 and fresh.misses == 0
        assert warm[0].sim == cold[0].sim

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "sweeps"
        cache = SweepCache(path)
        s = base_scenario()
        run_sweep([s], cache=cache)
        for f in path.glob("*.json"):
            f.write_text("{ not json")
        assert cache.get(s) is None

    def test_clear_empties_both_backends(self, tmp_path):
        for cache in (SweepCache(), SweepCache(tmp_path / "c")):
            run_sweep([base_scenario()], cache=cache)
            assert len(cache) == 1
            cache.clear()
            assert len(cache) == 0

    def test_clear_leaves_unrelated_files_alone(self, tmp_path):
        # Users may point the cache at a directory holding other JSON.
        bystander = tmp_path / "results.json"
        bystander.write_text("{}")
        cache = SweepCache(tmp_path)
        run_sweep([base_scenario()], cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert bystander.exists(), "clear() must only delete its own entries"

    def test_tilde_paths_expand_to_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = SweepCache("~/sweep-cache")
        assert cache.path == tmp_path / "sweep-cache"
        run_sweep([base_scenario()], cache=cache)  # first write creates it
        assert cache.path.is_dir() and len(cache) == 1

    def test_unwritable_path_degrades_to_misses(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = SweepCache(blocker / "cache")  # parent is a file: unwritable
        rs = run_sweep([base_scenario()], cache=cache)  # must not raise
        assert len(rs) == 1
        assert len(cache) == 0 and cache.skipped >= 1


class TestQuarantine:
    """Corrupt on-disk entries are renamed ``<key>.corrupt``, not re-parsed
    forever (docs/robustness.md)."""

    def _seed_entry(self, tmp_path):
        path = tmp_path / "sweeps"
        cache = SweepCache(path)
        s = base_scenario()
        run_sweep([s], cache=cache)
        [entry] = path.glob("*.json")
        return path, cache, s, entry

    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path):
        path, cache, s, entry = self._seed_entry(tmp_path)
        entry.write_text("{ torn mid-write")
        assert cache.get(s) is None
        assert not entry.exists(), "the corrupt file must move aside"
        quarantined = path / f"{entry.stem}.corrupt"
        assert quarantined.exists(), "quarantined for post-mortem, not deleted"
        assert cache.corrupt == 1 and cache.stats()["corrupt"] == 1
        # The next lookup is a clean miss, not another quarantine.
        assert cache.get(s) is None and cache.corrupt == 1

    def test_shape_drift_is_quarantined_too(self, tmp_path):
        # Valid JSON whose payload no longer matches the dataclasses.
        import json

        path, cache, s, entry = self._seed_entry(tmp_path)
        payload = json.loads(entry.read_text())
        payload["sim"] = {"only": "junk"}
        entry.write_text(json.dumps(payload))
        assert cache.get(s) is None
        assert cache.corrupt == 1 and (path / f"{entry.stem}.corrupt").exists()

    def test_version_mismatch_is_a_clean_miss_not_corruption(self, tmp_path):
        import json

        path, cache, s, entry = self._seed_entry(tmp_path)
        # v1 entries predate the emptied-server reclaim fix; 999 is a future
        # layout.  Both miss cleanly.
        for version in (1, 999):
            payload = json.loads(entry.read_text())
            payload["version"] = version
            entry.write_text(json.dumps(payload))
            assert cache.get(s) is None
            assert cache.corrupt == 0 and entry.exists()  # stale, not quarantined

    def test_len_and_clear_ignore_quarantined_files(self, tmp_path):
        path, cache, s, entry = self._seed_entry(tmp_path)
        entry.write_text("{ torn")
        assert cache.get(s) is None
        assert len(cache) == 0  # the .corrupt file is not an entry
        run_sweep([s], cache=cache)  # re-run refills the slot
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert (path / f"{entry.stem}.corrupt").exists(), (
            "clear() must leave quarantined files for post-mortem"
        )

    def test_rerun_overwrites_the_quarantined_slot(self, tmp_path):
        path, cache, s, entry = self._seed_entry(tmp_path)
        entry.write_text("{ torn")
        assert cache.get(s) is None
        cold = run_sweep([s], cache=cache)
        warm = run_sweep([s], cache=cache)
        assert warm[0].sim == cold[0].sim
        assert cache.hits >= 1

    def test_failed_results_are_never_stored(self, tmp_path):
        from repro.scenario import ScenarioFailure, ScenarioResult

        cache = SweepCache(tmp_path / "sweeps")
        failed = ScenarioResult.from_failure(
            base_scenario(),
            ScenarioFailure(kind="crash", error_type="WorkerCrashed", message="boom"),
        )
        skipped_before = cache.skipped
        assert not cache.put(failed)
        assert cache.skipped == skipped_before + 1
        assert len(cache) == 0


class TestSweepIntegration:
    def test_mixed_hits_and_misses_keep_order(self):
        cache = SweepCache()
        first = base_scenario(policy="proportional")
        second = base_scenario(policy="priority")
        run_sweep([first], cache=cache)
        rs = run_sweep([second, first, second], cache=cache)
        assert [r.scenario.policy for r in rs] == ["priority", "proportional", "priority"]
        # `first` was warmed above (1 miss); both `second` entries are fresh
        # misses, since lookups happen before any miss executes.
        assert cache.hits == 1 and cache.misses == 3

    def test_uncacheable_scenarios_still_run(self):
        traces = synthesize_azure_trace(AzureTraceConfig(n_vms=30, seed=3))
        s = Scenario().with_traces(traces).with_servers(3)
        cache = SweepCache()
        rs = run_sweep([s, s], cache=cache)
        assert len(rs) == 2
        assert len(cache) == 0

    def test_numpy_workload_params_bypass_cache_transparently(self):
        import numpy as np

        s = (
            Scenario(name="np-params")
            .with_workload("azure", n_vms=np.int64(40), seed=np.int64(2))
            .with_servers(3)
        )
        cache = SweepCache()
        rs = run_sweep([s], cache=cache)  # must not raise
        assert len(rs) == 1 and rs[0].sim.n_vms == 40
        assert len(cache) == 0 and cache.skipped >= 1

    def test_disk_backed_experiment_cache_is_detached_not_wiped(self, tmp_path):
        from repro.experiments import cluster_sweep as cs

        original = cs.SWEEP_CACHE
        try:
            cs.SWEEP_CACHE = SweepCache(tmp_path)
            run_sweep([base_scenario()], cache=cs.SWEEP_CACHE)
            assert len(list(tmp_path.glob("*.json"))) == 1
            cs.cluster_sweep.cache_clear()
            # The persistent store survives; the module got a fresh
            # in-memory cache for subsequent cold runs.
            assert len(list(tmp_path.glob("*.json"))) == 1
            assert cs.SWEEP_CACHE.path is None and len(cs.SWEEP_CACHE) == 0
        finally:
            cs.SWEEP_CACHE = original

    def test_cached_experiment_sweep_is_stable(self):
        from repro.experiments.cluster_sweep import SWEEP_CACHE, cluster_sweep

        SWEEP_CACHE.clear()
        try:
            a = cluster_sweep("small")
            hits_before = SWEEP_CACHE.hits
            b = cluster_sweep("small")
            assert SWEEP_CACHE.hits > hits_before
            assert a.scenarios() == b.scenarios()
            assert [r.sim for r in a] == [r.sim for r in b]
        finally:
            SWEEP_CACHE.clear()


class TestEngineField:
    def test_default_engine_elides_so_legacy_keys_are_unchanged(self):
        """A scenario spelling the default engine explicitly shares the
        key of one that never mentions it — pre-engine cache entries stay
        valid (docs/scenario-schema.md, "The engine field")."""
        base = base_scenario()
        assert "engine" not in base.to_dict()
        assert scenario_key(base.with_engine("cluster-sim")) == scenario_key(base)

    def test_non_default_engine_round_trips_and_changes_key(self):
        s = base_scenario()._replace(partitioned=True).with_engine("sharded")
        spec = s.to_dict()
        assert spec["engine"] == "sharded"
        assert Scenario.from_dict(spec) == s
        assert scenario_key(s) != scenario_key(s.with_engine("cluster-sim"))


class TestScenarioFieldCoverage:
    def test_new_scenario_fields_must_be_reviewed_for_caching(self):
        """If Scenario grows a field, its to_dict feeds the key (or this
        trips, forcing the author to decide)."""
        known = {
            "name",
            "workload",
            "traces",
            "failures",  # reviewed: serializes via to_dict, feeds the key
            "topology",  # reviewed: serializes via to_dict, feeds the key
            "policy",
            "n_servers",
            "overcommitment",
            "cores_per_server",
            "memory_per_server_mb",
            "partitioned",
            "n_partitions",
            "min_fraction",
            "admission",
            "scorer",
            "collectors",
            "engine",
            # reviewed: live state like `traces` — never serializes
            # (to_dict raises); keys the cache via snapshot.fingerprint()
            "checkpoint",
        }
        assert {f.name for f in dataclasses.fields(Scenario)} == known
