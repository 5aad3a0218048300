"""Round-trip tests for trace persistence.

The module's contract is *bit-stability*: save → load → save must
reproduce every field exactly (float64 ``cpu_util`` included), new
archives must not contain the historical stray ``allow_pickle`` key, and
legacy archives (stray key, float32 series, one ``util_{i}`` member per
VM before format v2) must still load, and malformed columns must raise
:class:`TraceError`.
"""

import io
import struct
import zipfile

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.alibaba import AlibabaTraceConfig, synthesize_alibaba_trace
from repro.traces.azure import AzureTraceConfig, synthesize_azure_trace
from repro.traces.io import (
    VM_FORMAT_VERSION,
    load_container_traces,
    load_vm_traces,
    save_container_traces,
    save_vm_traces,
)


def legacy_payload(traces, dtype=np.float64):
    """The pre-v2 layout: per-VM metadata arrays plus one ``util_{i}`` each."""
    payload = {
        "vm_ids": np.array([r.vm_id for r in traces], dtype=object),
        "classes": np.array([r.vm_class.value for r in traces], dtype=object),
        "cores": np.array([r.cores for r in traces], dtype=np.int64),
        "memory_mb": np.array([r.memory_mb for r in traces], dtype=np.float64),
        "starts": np.array([r.start_interval for r in traces], dtype=np.int64),
    }
    for i, rec in enumerate(traces):
        payload[f"util_{i}"] = rec.cpu_util.astype(dtype)
    return payload


def v2_payload(path):
    with np.load(path, allow_pickle=True) as data:
        return {key: data[key] for key in data.files}


def add_stray_allow_pickle_member(path):
    """Recreate the legacy bug: an ``allow_pickle`` array inside the archive.

    Old numpy's ``savez_compressed(file, *args, **kwds)`` had no
    ``allow_pickle`` parameter, so the kwarg the old save path passed was
    swallowed into ``kwds`` and written as a bogus archive member; modern
    numpy consumes the kwarg, so the member is injected by hand here.
    """
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array(True))
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("allow_pickle.npy", buf.getvalue())


@pytest.fixture(scope="module")
def vm_traces():
    return synthesize_azure_trace(AzureTraceConfig(n_vms=30, seed=11))


@pytest.fixture(scope="module")
def container_traces():
    return synthesize_alibaba_trace(AlibabaTraceConfig(n_containers=10, seed=2))


class TestVMTraceIO:
    def test_roundtrip_bit_identical(self, vm_traces, tmp_path):
        path = tmp_path / "vms.npz"
        save_vm_traces(vm_traces, path)
        loaded = load_vm_traces(path)
        assert len(loaded) == len(vm_traces)
        for a, b in zip(vm_traces, loaded):
            assert a.vm_id == b.vm_id
            assert a.vm_class == b.vm_class
            assert a.cores == b.cores
            assert a.memory_mb == b.memory_mb
            assert a.start_interval == b.start_interval
            assert b.cpu_util.dtype == np.float64
            np.testing.assert_array_equal(a.cpu_util, b.cpu_util)

    def test_save_load_save_is_bit_stable(self, vm_traces, tmp_path):
        """The second generation archive equals the first, member by member."""
        first, second = tmp_path / "gen1.npz", tmp_path / "gen2.npz"
        save_vm_traces(vm_traces, first)
        save_vm_traces(load_vm_traces(first), second)
        with np.load(first, allow_pickle=True) as a, np.load(second, allow_pickle=True) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])
                assert a[key].dtype == b[key].dtype

    def test_new_archives_have_no_stray_allow_pickle_key(self, vm_traces, tmp_path):
        path = tmp_path / "vms.npz"
        save_vm_traces(vm_traces, path)
        with np.load(path, allow_pickle=True) as data:
            assert "allow_pickle" not in data.files

    def test_legacy_archive_with_stray_key_and_float32_loads(self, vm_traces, tmp_path):
        """What the old save path wrote: float32 series + the leaked kwarg."""
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **legacy_payload(vm_traces, np.float32))
        add_stray_allow_pickle_member(path)
        with np.load(path, allow_pickle=True) as data:
            assert "allow_pickle" in data.files  # a faithful legacy archive
        loaded = load_vm_traces(path)
        assert len(loaded) == len(vm_traces)
        for a, b in zip(vm_traces, loaded):
            assert a.vm_id == b.vm_id
            assert b.cpu_util.dtype == np.float64
            np.testing.assert_allclose(a.cpu_util, b.cpu_util, atol=1e-6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="does not exist"):
            load_vm_traces(tmp_path / "nope.npz")

    def test_truncated_archive_raises_trace_error(self, vm_traces, tmp_path):
        path = tmp_path / "vms.npz"
        save_vm_traces(vm_traces, path)
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(TraceError, match="not a readable"):
            load_vm_traces(clipped)

    def test_non_archive_file_raises_trace_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(TraceError, match="not a readable"):
            load_vm_traces(path)

    def test_corrupt_member_raises_trace_error(self, vm_traces, tmp_path):
        """Members decompress lazily: an intact zip directory over
        bit-rotted member data must still surface as TraceError."""
        path = tmp_path / "vms.npz"
        save_vm_traces(vm_traces, path)
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("util_values.npy")
        # Flip bytes in the member's compressed payload — the local file
        # header is 30 fixed bytes plus filename and extra fields (their
        # lengths live at header offsets 26 and 28) — leaving the central
        # directory untouched.
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        data_start = info.header_offset + 30 + name_len + extra_len
        for off in range(data_start, data_start + min(20, info.compress_size)):
            raw[off] ^= 0xFF
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="corrupt archive member|not a readable"):
            load_vm_traces(corrupt)

    def test_archive_missing_members_raises_trace_error(self, vm_traces, tmp_path):
        """An odd archive (right container, wrong members) fails loudly."""
        path = tmp_path / "odd.npz"
        np.savez_compressed(path, cores=np.array([2, 4], dtype=np.int64))
        assert zipfile.is_zipfile(path)
        with pytest.raises(TraceError, match="missing archive member"):
            load_vm_traces(path)


    def test_v2_archive_is_columnar(self, vm_traces, tmp_path):
        path = tmp_path / "vms.npz"
        save_vm_traces(vm_traces, path)
        with np.load(path, allow_pickle=True) as data:
            assert int(data["format_version"]) == VM_FORMAT_VERSION == 2
            assert not [key for key in data.files if key.startswith("util_") and
                        key not in ("util_values", "util_offsets")]
            np.testing.assert_array_equal(data["util_values"], vm_traces.util)
            np.testing.assert_array_equal(data["util_offsets"], vm_traces.offsets)

    def test_legacy_float64_archive_loads_bit_identical(self, vm_traces, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **legacy_payload(vm_traces))
        loaded = load_vm_traces(path)
        for a, b in zip(vm_traces, loaded):
            assert (a.vm_id, a.vm_class, a.cores, a.start_interval, a.p95_cpu) == (
                b.vm_id, b.vm_class, b.cores, b.start_interval, b.p95_cpu
            )
            np.testing.assert_array_equal(a.cpu_util, b.cpu_util)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda off: off[::-1],  # non-monotonic
            lambda off: np.concatenate(([0, -3], off[2:])),  # negative
            lambda off: off[:-1],  # wrong length
            lambda off: np.concatenate((off, off[-1:])),  # wrong length, empty series
            lambda off: off + 1,  # does not start at 0
            lambda off: off.astype(np.float64),  # not integers
        ],
    )
    def test_bad_offsets_raise_trace_error(self, vm_traces, tmp_path, mangle):
        good = tmp_path / "good.npz"
        save_vm_traces(vm_traces, good)
        payload = v2_payload(good)
        payload["util_offsets"] = mangle(payload["util_offsets"])
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, **payload)
        with pytest.raises(TraceError, match="offsets"):
            load_vm_traces(path)

    def test_non_finite_values_raise_trace_error(self, vm_traces, tmp_path):
        good = tmp_path / "good.npz"
        save_vm_traces(vm_traces, good)
        payload = v2_payload(good)
        payload["util_values"] = payload["util_values"].copy()
        payload["util_values"][5] = np.nan
        path = tmp_path / "nan.npz"
        np.savez_compressed(path, **payload)
        with pytest.raises(TraceError, match="finite"):
            load_vm_traces(path)

    def test_unknown_format_version_raises_trace_error(self, vm_traces, tmp_path):
        good = tmp_path / "good.npz"
        save_vm_traces(vm_traces, good)
        payload = v2_payload(good)
        payload["format_version"] = np.array(3)
        path = tmp_path / "v3.npz"
        np.savez_compressed(path, **payload)
        with pytest.raises(TraceError, match="format version 3"):
            load_vm_traces(path)


class TestContainerTraceIO:
    def test_roundtrip_bit_identical(self, container_traces, tmp_path):
        path = tmp_path / "containers.npz"
        save_container_traces(container_traces, path)
        loaded = load_container_traces(path)
        assert len(loaded) == len(container_traces)
        for a, b in zip(container_traces, loaded):
            assert a.container_id == b.container_id
            for field in ("mem_util", "mem_bw_util", "disk_util", "net_util"):
                got = getattr(b, field)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(getattr(a, field), got)

    def test_save_load_save_is_bit_stable(self, container_traces, tmp_path):
        first, second = tmp_path / "gen1.npz", tmp_path / "gen2.npz"
        save_container_traces(container_traces, first)
        save_container_traces(load_container_traces(first), second)
        with np.load(first, allow_pickle=True) as a, np.load(second, allow_pickle=True) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])

    def test_new_archives_have_no_stray_allow_pickle_key(self, container_traces, tmp_path):
        path = tmp_path / "containers.npz"
        save_container_traces(container_traces, path)
        with np.load(path, allow_pickle=True) as data:
            assert "allow_pickle" not in data.files

    def test_legacy_archive_with_stray_key_loads(self, container_traces, tmp_path):
        path = tmp_path / "legacy.npz"
        payload = {
            "container_ids": np.array(
                [r.container_id for r in container_traces], dtype=object
            ),
        }
        for i, rec in enumerate(container_traces):
            payload[f"mem_{i}"] = rec.mem_util.astype(np.float32)
            payload[f"membw_{i}"] = rec.mem_bw_util.astype(np.float32)
            payload[f"disk_{i}"] = rec.disk_util.astype(np.float32)
            payload[f"net_{i}"] = rec.net_util.astype(np.float32)
        np.savez_compressed(path, **payload)
        add_stray_allow_pickle_member(path)
        loaded = load_container_traces(path)
        assert len(loaded) == len(container_traces)
        for a, b in zip(container_traces, loaded):
            np.testing.assert_allclose(a.mem_util, b.mem_util, atol=1e-6)
            np.testing.assert_allclose(a.net_util, b.net_util, atol=1e-6)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_container_traces(tmp_path / "nope.npz")

    def test_truncated_archive_raises_trace_error(self, container_traces, tmp_path):
        path = tmp_path / "containers.npz"
        save_container_traces(container_traces, path)
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(TraceError, match="not a readable"):
            load_container_traces(clipped)

    def test_archive_missing_members_raises_trace_error(self, container_traces, tmp_path):
        path = tmp_path / "odd.npz"
        np.savez_compressed(
            path, container_ids=np.array(["c1", "c2"], dtype=object)
        )
        with pytest.raises(TraceError, match="missing archive member"):
            load_container_traces(path)