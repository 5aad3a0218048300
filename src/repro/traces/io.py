"""Persistence for trace sets (compressed .npz).

Synthetic traces are cheap to regenerate, but the cluster benchmarks reuse
one trace across many policy runs; saving it keeps experiments exactly
comparable and makes runs reproducible from an artifact.  "Exactly
comparable" is meant literally: a save → load round-trip is **bit-stable**
— every numeric field (including the float64 ``cpu_util`` series) comes
back identical, so a reloaded trace replays to the same results and hashes
to the same sweep-cache keys as the original.

Two historical wrinkles this module now handles explicitly:

* ``allow_pickle=True`` used to be passed to :func:`numpy.savez_compressed`,
  which does not take that keyword — it silently stored a bogus scalar
  array named ``allow_pickle`` *inside* the archive.  New archives no
  longer contain it; loading tolerates (and ignores) the stray key in
  legacy archives.  ``allow_pickle`` belongs on the :func:`numpy.load`
  side only, where the object-dtype id/class arrays genuinely need it.
* utilization series used to be written as float32 and widened back on
  load, making round-trips lossy.  They are now persisted as float64;
  legacy float32 archives still load (at their stored precision).

VM archives are columnar since format v2 (:data:`VM_FORMAT_VERSION`); the
per-VM ``util_{i}`` layout before it still loads.  Either way the loaded
columns pass :meth:`VMTraceSet.from_columns`' validation, so malformed
offsets or values raise :class:`TraceError`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.vm import VMClass
from repro.errors import TraceError
from repro.traces.schema import (
    VM_CLASSES,
    ContainerTraceRecord,
    ContainerTraceSet,
    VMTraceSet,
)

#: Layout of :func:`save_vm_traces` archives.  Version 2 stores every
#: series in one ``util_values`` buffer cut by ``util_offsets`` (CSR);
#: archives without a ``format_version`` member are the legacy layout, one
#: ``util_{i}`` member per VM.
VM_FORMAT_VERSION = 2


def _open_archive(path: str | Path) -> np.lib.npyio.NpzFile:
    """Open a trace archive, translating open-time failures into TraceError.

    Member data is decompressed lazily on access, so readers must also
    guard the member reads (:func:`_read_members`) — a truncated or
    bit-rotted member only surfaces there.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file {path} does not exist")
    try:
        return np.load(path, allow_pickle=True)
    except Exception as exc:  # truncated download, not a zip at all
        raise TraceError(f"trace file {path} is not a readable .npz archive: {exc}") from exc


def _read_members(path: str | Path, build):
    """Run ``build(archive)`` with every archive failure as TraceError."""
    with _open_archive(path) as data:
        try:
            return build(data)
        except KeyError as missing:
            raise TraceError(
                f"trace file {Path(path)} is missing archive member {missing}"
            ) from None
        except TraceError:
            raise
        except Exception as exc:  # corrupt member: zlib.error, BadZipFile, ...
            raise TraceError(
                f"trace file {Path(path)} has a corrupt archive member: {exc}"
            ) from exc


def save_vm_traces(traces: VMTraceSet, path: str | Path) -> None:
    """Write a VM trace set to a compressed .npz archive (format v2)."""
    np.savez_compressed(
        Path(path),
        format_version=np.array(VM_FORMAT_VERSION, dtype=np.int64),
        vm_ids=np.array(traces.vm_ids, dtype=object),
        classes=np.array([VM_CLASSES[c].value for c in traces.vm_class.tolist()], dtype=object),
        cores=traces.cores,
        memory_mb=traces.memory_mb,
        starts=traces.start_interval,
        util_values=traces.util,
        util_offsets=traces.offsets,
    )


def load_vm_traces(path: str | Path) -> VMTraceSet:
    """Read a VM trace set produced by :func:`save_vm_traces` (v2 or legacy)."""

    def build(data):
        n = data["cores"].size
        if "format_version" not in data.files:  # legacy: one util_{i} per VM
            series = [np.asarray(data[f"util_{i}"], dtype=np.float64) for i in range(n)]
            util = np.concatenate(series or [np.zeros(0)])
            offsets = np.cumsum([0] + [s.size for s in series], dtype=np.int64)
        elif int(data["format_version"]) == VM_FORMAT_VERSION:
            util = np.asarray(data["util_values"], dtype=np.float64)
            offsets = data["util_offsets"]
        else:
            raise TraceError(
                f"trace file {Path(path)} has format version "
                f"{int(data['format_version'])}; this reader knows {VM_FORMAT_VERSION}"
            )
        return VMTraceSet.from_columns(
            vm_ids=[str(v) for v in data["vm_ids"]],
            vm_class=[VM_CLASSES.index(VMClass(str(c))) for c in data["classes"]],
            cores=data["cores"],
            memory_mb=data["memory_mb"],
            start_interval=data["starts"],
            util=util,
            offsets=offsets,
        )

    return _read_members(path, build)


def save_container_traces(traces: ContainerTraceSet, path: str | Path) -> None:
    path = Path(path)
    payload: dict[str, np.ndarray] = {
        "container_ids": np.array([r.container_id for r in traces], dtype=object),
    }
    for i, rec in enumerate(traces):
        payload[f"mem_{i}"] = np.asarray(rec.mem_util, dtype=np.float64)
        payload[f"membw_{i}"] = np.asarray(rec.mem_bw_util, dtype=np.float64)
        payload[f"disk_{i}"] = np.asarray(rec.disk_util, dtype=np.float64)
        payload[f"net_{i}"] = np.asarray(rec.net_util, dtype=np.float64)
    np.savez_compressed(path, **payload)


def load_container_traces(path: str | Path) -> ContainerTraceSet:
    def build(data):
        ids = data["container_ids"]
        return [
            ContainerTraceRecord(
                container_id=str(ids[i]),
                mem_util=np.asarray(data[f"mem_{i}"], dtype=np.float64),
                mem_bw_util=np.asarray(data[f"membw_{i}"], dtype=np.float64),
                disk_util=np.asarray(data[f"disk_{i}"], dtype=np.float64),
                net_util=np.asarray(data[f"net_{i}"], dtype=np.float64),
            )
            for i in range(ids.size)
        ]

    return ContainerTraceSet(_read_members(path, build))
