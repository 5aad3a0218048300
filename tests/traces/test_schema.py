"""Tests for trace schemas and bulk accessors."""

import numpy as np
import pytest

from repro.core.vm import VMClass
from repro.errors import TraceError
from repro.traces.schema import (
    INTERVALS_PER_DAY,
    ContainerTraceRecord,
    VMTraceRecord,
    VMTraceSet,
)


def rec(util, cores=4, mem=8192, start=0, cls=VMClass.INTERACTIVE, vm_id="v"):
    return VMTraceRecord(
        vm_id=vm_id,
        vm_class=cls,
        cores=cores,
        memory_mb=mem,
        start_interval=start,
        cpu_util=np.asarray(util, dtype=float),
    )


class TestVMTraceRecord:
    def test_derived_fields(self):
        r = rec([0.1, 0.2, 0.9], start=5)
        assert r.lifetime_intervals == 3
        assert r.end_interval == 8
        assert r.mean_cpu == pytest.approx(0.4)
        assert r.p95_cpu == pytest.approx(np.percentile([0.1, 0.2, 0.9], 95))

    def test_size_classes(self):
        assert rec([0.1], mem=2048).size_class() == "small(<=2GB)"
        assert rec([0.1], mem=8192).size_class() == "medium(<=8GB)"
        assert rec([0.1], mem=16384).size_class() == "large(>8GB)"

    def test_peak_classes(self):
        assert rec([0.1] * 100).peak_class() == "p95<33%"
        assert rec([0.5] * 100).peak_class() == "33%<=p95<66%"
        assert rec([0.7] * 100).peak_class() == "66%<=p95<80%"
        assert rec([0.95] * 100).peak_class() == "p95>=80%"

    def test_validation(self):
        with pytest.raises(TraceError):
            rec([1.5])  # out of range
        with pytest.raises(TraceError):
            rec([])  # empty
        with pytest.raises(TraceError):
            rec([[0.1]])  # 2-D
        with pytest.raises(TraceError):
            rec([0.1], cores=0)
        with pytest.raises(TraceError):
            rec([0.1], start=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TraceError, match="finite"):
            rec([0.1, bad, 0.2])

    def test_fractional_cores_rejected(self):
        with pytest.raises(TraceError, match="whole number"):
            rec([0.1], cores=2.5)

    def test_clipping_tolerates_epsilon(self):
        r = rec([1.0 + 1e-12])
        assert r.cpu_util.max() <= 1.0


class TestVMTraceSet:
    def test_filters(self):
        records = [
            rec([0.1], cls=VMClass.INTERACTIVE, vm_id="a"),
            rec([0.9], cls=VMClass.DELAY_INSENSITIVE, vm_id="b"),
        ]
        ts = VMTraceSet(records)
        assert len(ts.by_class(VMClass.INTERACTIVE)) == 1
        assert ts.by_class(VMClass.INTERACTIVE)[0].vm_id == "a"

    def test_horizon(self):
        ts = VMTraceSet([rec([0.1] * 10, start=5), rec([0.1] * 3, start=20)])
        assert ts.horizon() == 23

    def test_total_core_intervals(self):
        ts = VMTraceSet([rec([0.1] * 10, cores=4)])
        assert ts.total_core_intervals() == 40

    def test_intervals_per_day_constant(self):
        assert INTERVALS_PER_DAY == 288


class TestContainerRecord:
    @pytest.mark.parametrize("series", ["mem_util", "mem_bw_util", "disk_util", "net_util"])
    def test_non_finite_rejected(self, series):
        names = ("mem_util", "mem_bw_util", "disk_util", "net_util")
        kwargs = {name: np.full(5, 0.5) for name in names}
        kwargs[series][2] = np.nan
        with pytest.raises(TraceError, match="finite"):
            ContainerTraceRecord(container_id="c", **kwargs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceError):
            ContainerTraceRecord(
                container_id="c",
                mem_util=np.zeros(5),
                mem_bw_util=np.zeros(5),
                disk_util=np.zeros(4),
                net_util=np.zeros(5),
            )
