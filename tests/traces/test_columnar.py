"""Columnar trace sets (docs/architecture.md, "Trace sets").

A :class:`VMTraceSet` stores every VM as one row of columns: a float64
utilisation buffer cut by int64 CSR ``offsets``, plus ``vm_ids``,
``vm_class``, ``cores``, ``memory_mb``, ``start_interval`` and ``p95``.
Records are read-only views of one row.  These tests pin the
synthesizer's bits, check the column p95 against the per-series
percentile, and check that ``take`` and pickling (shard specs cross to
workers under fork and spawn) keep every field.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from strategies import scenario_batch

from repro.core.vm import VMClass
from repro.errors import TraceError
from repro.scenario import ClusterSimEngine, Scenario, resolve_workload
from repro.simulator.sharded import ShardedEngine, plan_shards
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace
from repro.traces.schema import VM_CLASSES, VMTraceRecord, VMTraceSet

#: sha256 of :func:`column_digest` per synthesizer config, computed with
#: the record-by-record synthesizer before the trace set became columnar.
#: A change to the draw order, the lifetime model, validation or the p95
#: arithmetic moves them.  The second config's series outgrow the buffer
#: the synthesizer first allocates, so the grow-in-place path is pinned too.
PINNED = {
    (300, 1, None): "6d4452ef16355b8f943a0b74ba776d30463dfce66985a71dc64f9f5a746cfb03",
    (200, 3, 2.0): "6a730a4d5b5870f8941fb56b87cae0a2434042e59d97ccd9ad24c12582739706",
}


def column_digest(traces: VMTraceSet) -> str:
    h = hashlib.sha256()
    h.update("\n".join(traces.vm_ids).encode())
    h.update("\n".join(VM_CLASSES[c].value for c in traces.vm_class.tolist()).encode())
    for column, dtype in (
        (traces.cores, "<i8"),
        (traces.memory_mb, "<f8"),
        (traces.start_interval, "<i8"),
        (traces.offsets, "<i8"),
        (traces.util, "<f8"),
        (traces.p95, "<f8"),
    ):
        h.update(np.asarray(column, dtype=dtype).tobytes())
    return h.hexdigest()


def fields(rec: VMTraceRecord) -> tuple:
    return (
        rec.vm_id,
        rec.vm_class,
        rec.cores,
        rec.memory_mb,
        rec.start_interval,
        rec.cpu_util.tobytes(),
        rec.p95_cpu,
    )


def assert_same_rows(a: VMTraceSet, b: VMTraceSet) -> None:
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert fields(ra) == fields(rb)


@pytest.fixture(scope="module")
def traces():
    return synthesize_azure_trace(AzureTraceConfig(n_vms=300, seed=1))


@pytest.mark.parametrize("n_vms, seed, mean_lifetime", list(PINNED))
def test_synthesizer_bits_are_pinned(n_vms, seed, mean_lifetime):
    config = AzureTraceConfig(n_vms=n_vms, seed=seed)
    if mean_lifetime is not None:
        config = AzureTraceConfig(n_vms=n_vms, seed=seed, mean_lifetime_intervals=mean_lifetime)
    traces = synthesize_azure_trace(config)
    assert column_digest(traces) == PINNED[n_vms, seed, mean_lifetime]


def test_generated_traces_match_per_record_arithmetic(fuzz_seed):
    """Over the randomized scenarios' workloads: every column p95 equals
    the series' own percentile, and rebuilding the set from its records
    round-trips every field."""
    for scenario in scenario_batch(fuzz_seed, 6):
        traces = resolve_workload(scenario)
        for i, rec in enumerate(traces):
            assert traces.p95[i] == np.percentile(rec.cpu_util, 95), (scenario.describe(), i)
        rebuilt = VMTraceSet(traces.records)
        assert_same_rows(rebuilt, traces)
        assert column_digest(rebuilt) == column_digest(traces)


def test_standalone_record_p95_is_the_series_percentile():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 288, 575):
        util = rng.random(n)
        rec = VMTraceRecord("v", VMClass.INTERACTIVE, 2, 4096, 0, util)
        assert rec.p95_cpu == np.percentile(util, 95)


def test_records_are_read_only_views(traces):
    rec = traces[3]
    assert np.shares_memory(rec.cpu_util, traces.util)
    with pytest.raises(ValueError):
        rec.cpu_util[0] = 0.5
    with pytest.raises(AttributeError):
        rec.cores = 4
    assert traces[-1].vm_id == traces.vm_ids[-1]
    assert [r.vm_id for r in traces[2:4]] == traces.vm_ids[2:4]


def test_take_gathers_rows_in_order(traces):
    idx = np.array([7, 0, 299, 7, 42])
    sub = traces.take(idx)
    assert sub.vm_ids == [traces.vm_ids[i] for i in idx]
    for k, i in enumerate(idx):
        assert fields(sub[k]) == fields(traces[int(i)])
    # The series stay shared until the taken set's own buffer is read.
    assert np.shares_memory(sub.series(0), traces.util)
    assert sub.util.tolist() == np.concatenate([traces.series(int(i)) for i in idx]).tolist()
    assert not np.shares_memory(sub.series(0), traces.util)
    for k, i in enumerate(idx):
        assert fields(sub[k]) == fields(traces[int(i)])
    nested = sub.take([4, 1])
    assert [fields(r) for r in nested] == [fields(traces[42]), fields(traces[0])]
    assert len(traces.take([])) == 0
    assert traces.take([]).horizon() == 0


def test_filters_are_takes(traces):
    interactive = traces.by_class(VMClass.INTERACTIVE)
    assert all(r.vm_class == VMClass.INTERACTIVE for r in interactive)
    assert len(interactive) == int(traces.class_mask(VMClass.INTERACTIVE).sum())
    for label in ("small(<=2GB)", "medium(<=8GB)", "large(>8GB)"):
        assert all(r.size_class() == label for r in traces.by_size_class(label))
    total = sum(len(traces.by_peak_class(label)) for label in
                ("p95<33%", "33%<=p95<66%", "66%<=p95<80%", "p95>=80%"))
    assert total == len(traces)


def test_bulk_accessors_match_records(traces):
    assert traces.horizon() == max(r.end_interval for r in traces)
    assert traces.total_core_intervals() == float(
        sum(r.cores * r.lifetime_intervals for r in traces)
    )


def test_pickle_ships_columns_not_record_views(traces):
    fresh = pickle.dumps(traces)
    assert len(traces.records) == len(traces)  # builds the cached views
    assert pickle.dumps(traces) == fresh
    back = pickle.loads(fresh)
    assert back._records is None
    assert_same_rows(back, traces)
    assert not back.util.flags.writeable


class TestFromColumns:
    def columns(self, **overrides):
        cols = dict(
            vm_ids=["a", "b"],
            vm_class=[0, 1],
            cores=[2, 4],
            memory_mb=[1024.0, 2048.0],
            start_interval=[0, 3],
            util=np.array([0.1, 0.2, 0.3, 1.0 + 1e-12, 0.5]),
            offsets=np.array([0, 2, 5]),
        )
        cols.update(overrides)
        return cols

    def test_valid_columns_clip_in_place(self):
        traces = VMTraceSet.from_columns(**self.columns())
        assert traces.util.max() == 1.0
        assert traces[1].cpu_util.tolist() == [0.3, 1.0, 0.5]
        assert traces.p95[1] == np.percentile([0.3, 1.0, 0.5], 95)

    @pytest.mark.parametrize(
        "offsets",
        [[0, 3, 2], [0, -1, 5], [0, 2], [0, 2, 5, 5], [1, 2, 5], [0, 2, 4], [0, 2, 2]],
    )
    def test_bad_offsets_raise(self, offsets):
        with pytest.raises(TraceError, match="offsets"):
            VMTraceSet.from_columns(**self.columns(offsets=np.array(offsets)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.1])
    def test_bad_values_raise(self, bad):
        util = np.array([0.1, 0.2, 0.3, bad, 0.5])
        with pytest.raises(TraceError, match="finite"):
            VMTraceSet.from_columns(**self.columns(util=util))

    def test_bad_scalars_raise(self):
        for override in ({"cores": [0, 4]}, {"cores": [1.5, 4]}, {"memory_mb": [1.0, 0.0]},
                         {"memory_mb": [np.nan, 1.0]}, {"start_interval": [-1, 0]},
                         {"cores": [1, 2, 3]}, {"vm_class": [0, 7]}):
            with pytest.raises(TraceError):
                VMTraceSet.from_columns(**self.columns(**override))


def test_shard_specs_carry_column_gathers():
    """The splitter's per-pool sets are ``take`` gathers of the trace."""
    traces = synthesize_azure_trace(AzureTraceConfig(n_vms=300, seed=4))
    scenario = (
        Scenario(name="columnar-shards")
        .with_traces(traces)
        .with_policy("proportional")
        .with_servers(12)
        .with_partitions()
    )
    plan = plan_shards(scenario)
    for spec in plan.specs:
        assert_same_rows(spec.traces, traces.take(spec.vm_global))
        assert_same_rows(pickle.loads(pickle.dumps(spec)).traces, spec.traces)
    sharded = ShardedEngine(workers=2).run(scenario).sim
    assert sharded == ClusterSimEngine().run(scenario).sim
