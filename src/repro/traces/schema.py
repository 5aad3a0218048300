"""Trace schemas shared by the feasibility analysis and the cluster simulator.

Two shapes of data, mirroring the paper's two datasets:

* :class:`VMTraceRecord` / :class:`VMTraceSet` — Azure-style VM traces: per-VM
  CPU-utilization time series at 5-minute granularity plus metadata (size,
  workload class, lifetime), stored as columns; a record is a read-only
  view of one row.
* :class:`ContainerTraceRecord` / :class:`ContainerTraceSet` — Alibaba-style
  container traces: memory occupancy, memory-bandwidth, disk and network
  utilization series.

Utilizations are fractions of the *allocated* resource in ``[0, 1]``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.vm import VMClass
from repro.errors import TraceError

#: Trace interval length in seconds (the Azure dataset reports 5-minute
#: maxima; all our series use the same granularity).
INTERVAL_SECONDS = 300

#: Intervals per day at 5-minute granularity.
INTERVALS_PER_DAY = 24 * 60 * 60 // INTERVAL_SECONDS

#: Slack of the utilisation range check; values within it are clipped.
_RANGE_EPS = 1e-9

#: Workload class of each ``VMTraceSet.vm_class`` code.
VM_CLASSES: tuple[VMClass, ...] = tuple(VMClass)


def _check_range(arr: np.ndarray, name: str) -> None:
    """Reject values outside ``[0, 1]`` (give or take ``_RANGE_EPS``) and NaN.

    A positive test on the extremes: NaN propagates through ``min``/``max``
    and fails both comparisons, so it is rejected along with +-inf.
    """
    if arr.size and not (arr.min() >= -_RANGE_EPS and arr.max() <= 1 + _RANGE_EPS):
        raise TraceError(f"{name} must be finite and lie in [0, 1]")


def _check_utilization(series: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise TraceError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise TraceError(f"{name} must be non-empty")
    _check_range(arr, name)
    return np.clip(arr, 0.0, 1.0)


def _offsets_of(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets (``n + 1`` entries, leading 0) of series with ``lengths``."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _p95_by_length(util: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """95th percentile of every series, one ``np.percentile`` per length.

    Series of one length stack into a matrix whose row percentiles equal
    the per-series ones bit for bit; a trace has a few hundred distinct
    lengths, against tens of thousands of series.
    """
    lengths = np.diff(offsets)
    p95 = np.empty(lengths.size)
    order = np.argsort(lengths, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if rows.size:
            block = util[offsets[rows, None] + np.arange(lengths[rows[0]])]
            p95[rows] = np.percentile(block, 95, axis=1)
    return p95


def _size_class(memory_mb: float) -> str:
    if memory_mb <= 2 * 1024:
        return "small(<=2GB)"
    if memory_mb <= 8 * 1024:
        return "medium(<=8GB)"
    return "large(>8GB)"


def _peak_class(p95: float) -> str:
    if p95 < 0.33:
        return "p95<33%"
    if p95 < 0.66:
        return "33%<=p95<66%"
    if p95 < 0.80:
        return "66%<=p95<80%"
    return "p95>=80%"


class VMTraceRecord:
    """One VM's lifetime in an Azure-style trace: a read-only row view.

    ``VMTraceRecord(vm_id=..., ...)`` validates its fields and stores them
    as a one-row :class:`VMTraceSet`; ``traces[i]`` views row ``i`` of an
    existing set without copying.  Either way ``cpu_util`` is a read-only
    slice of the set's utilisation buffer (fraction of allocated CPU, one
    entry per interval).
    """

    __slots__ = ("_set", "_row")

    def __init__(
        self,
        vm_id: str,
        vm_class: VMClass,
        cores: int,
        memory_mb: float,
        start_interval: int,
        cpu_util: np.ndarray,
    ) -> None:
        util = np.array(cpu_util, dtype=np.float64)  # a copy: clipped in place
        self._set = VMTraceSet.from_columns(
            vm_ids=[vm_id],
            vm_class=[VM_CLASSES.index(VMClass(vm_class))],
            cores=[cores],
            memory_mb=[memory_mb],
            start_interval=[start_interval],
            util=util,
            offsets=[0, util.size],
        )
        self._row = 0

    @classmethod
    def _view(cls, traces: "VMTraceSet", row: int) -> "VMTraceRecord":
        rec = object.__new__(cls)
        rec._set = traces
        rec._row = row
        return rec

    def __repr__(self) -> str:
        return (
            f"VMTraceRecord(vm_id={self.vm_id!r}, vm_class={self.vm_class}, "
            f"cores={self.cores}, memory_mb={self.memory_mb}, "
            f"start_interval={self.start_interval}, "
            f"lifetime_intervals={self.lifetime_intervals})"
        )

    @property
    def vm_id(self) -> str:
        return self._set.vm_ids[self._row]

    @property
    def vm_class(self) -> VMClass:
        return VM_CLASSES[self._set.vm_class[self._row]]

    @property
    def cores(self) -> int:
        return int(self._set.cores[self._row])

    @property
    def memory_mb(self) -> float:
        return float(self._set.memory_mb[self._row])

    @property
    def start_interval(self) -> int:
        return int(self._set.start_interval[self._row])

    @property
    def cpu_util(self) -> np.ndarray:
        return self._set.series(self._row)

    @property
    def lifetime_intervals(self) -> int:
        offsets = self._set.offsets
        return int(offsets[self._row + 1] - offsets[self._row])

    @property
    def end_interval(self) -> int:
        """Exclusive end interval."""
        return self.start_interval + self.lifetime_intervals

    @property
    def p95_cpu(self) -> float:
        """95th-percentile CPU utilization — the paper's deflatability proxy.

        Read from the set's ``p95`` column, computed once per set.
        """
        return float(self._set.p95[self._row])

    @property
    def mean_cpu(self) -> float:
        return float(self.cpu_util.mean())

    def size_class(self) -> str:
        """Figure 7's memory-size buckets."""
        return _size_class(self.memory_mb)

    def peak_class(self) -> str:
        """Figure 8's 95th-percentile CPU buckets."""
        return _peak_class(self.p95_cpu)


class VMTraceSet:
    """A collection of VM traces stored as columns, one row per VM.

    * ``util`` — every VM's CPU-utilisation series back to back (float64,
      read-only); VM ``i``'s series is ``util[offsets[i]:offsets[i + 1]]``;
    * ``offsets`` — int64, ``n + 1`` entries from 0 to ``util.size`` (CSR);
    * ``vm_ids`` — list of str;
    * ``vm_class`` — uint8 codes into :data:`VM_CLASSES`;
    * ``cores``, ``start_interval`` — int64; ``memory_mb`` — float64;
    * ``p95`` — float64, each series' 95th percentile.

    ``VMTraceSet(records)`` gathers the rows of existing records;
    :meth:`from_columns` validates raw columns; :meth:`take` gathers rows
    of a set.  ``traces[i]``, iteration and :attr:`records` yield
    :class:`VMTraceRecord` views.
    """

    def __init__(self, records: Iterable[VMTraceRecord] = ()) -> None:
        records = list(records)
        lengths = np.array([r.lifetime_intervals for r in records], dtype=np.int64)
        self._assign(
            vm_ids=[r.vm_id for r in records],
            vm_class=np.array(
                [VM_CLASSES.index(r.vm_class) for r in records], dtype=np.uint8
            ),
            cores=np.array([r.cores for r in records], dtype=np.int64),
            memory_mb=np.array([r.memory_mb for r in records], dtype=np.float64),
            start_interval=np.array([r.start_interval for r in records], dtype=np.int64),
            util=np.concatenate([r.cpu_util for r in records] or [np.zeros(0)]),
            offsets=_offsets_of(lengths),
            p95=np.array([r.p95_cpu for r in records], dtype=np.float64),
        )

    @classmethod
    def _of(cls, **columns) -> "VMTraceSet":
        """A set over trusted columns (no validation)."""
        traces = object.__new__(cls)
        traces._assign(**columns)
        return traces

    def _assign(
        self,
        *,
        vm_ids: list[str],
        vm_class: np.ndarray,
        cores: np.ndarray,
        memory_mb: np.ndarray,
        start_interval: np.ndarray,
        util: np.ndarray,
        offsets: np.ndarray,
        p95: np.ndarray,
    ) -> None:
        for column in (vm_class, cores, memory_mb, start_interval, util, offsets, p95):
            column.flags.writeable = False
        self.vm_ids = vm_ids
        self.vm_class = vm_class
        self.cores = cores
        self.memory_mb = memory_mb
        self.start_interval = start_interval
        self.offsets = offsets
        self.p95 = p95
        # Row i's series is _buf[_lo[i]:_hi[i]].  A set owns a CSR buffer
        # (_csr) unless it was taken from another set, whose buffer it
        # shares until ``util`` is first read.
        self._buf, self._lo, self._hi = util, offsets[:-1], offsets[1:]
        self._csr = True
        self._records: list[VMTraceRecord] | None = None

    @property
    def util(self) -> np.ndarray:
        """Every series back to back, in row order (float64, read-only)."""
        if not self._csr:
            util = np.concatenate([self.series(i) for i in range(len(self))] or [np.zeros(0)])
            util.flags.writeable = False
            self._buf, self._lo, self._hi = util, self.offsets[:-1], self.offsets[1:]
            self._csr = True
        return self._buf

    @classmethod
    def from_columns(
        cls,
        *,
        vm_ids: list[str],
        vm_class: np.ndarray,
        cores: np.ndarray,
        memory_mb: np.ndarray,
        start_interval: np.ndarray,
        util: np.ndarray,
        offsets: np.ndarray,
    ) -> "VMTraceSet":
        """Validate raw columns and compute ``p95``; see the class docstring.

        ``util`` is taken over, not copied: it is clipped to ``[0, 1]`` in
        place after one range check over the whole buffer.
        """
        util = np.asarray(util, dtype=np.float64)
        if not util.flags.writeable:
            util = util.copy()
        offsets = np.asarray(offsets)
        n = len(vm_ids)
        if util.ndim != 1:
            raise TraceError(f"cpu_util must be 1-D, got shape {util.shape}")
        if offsets.shape != (n + 1,) or not np.issubdtype(offsets.dtype, np.integer):
            raise TraceError(f"offsets must be {n + 1} integers, got shape {offsets.shape}")
        offsets = offsets.astype(np.int64, copy=False)
        if offsets[0] != 0 or offsets[-1] != util.size or np.any(np.diff(offsets) < 1):
            raise TraceError(
                "offsets must rise strictly from 0 to the buffer size "
                "(every cpu_util series non-empty)"
            )
        columns = {
            "vm_class": np.asarray(vm_class, dtype=np.uint8),
            "cores": np.asarray(cores, dtype=np.int64),
            "memory_mb": np.asarray(memory_mb, dtype=np.float64),
            "start_interval": np.asarray(start_interval, dtype=np.int64),
        }
        if any(col.shape != (n,) for col in columns.values()):
            raise TraceError(f"every per-VM column must hold {n} entries")
        if np.any(columns["vm_class"] >= len(VM_CLASSES)):
            raise TraceError("vm_class codes must index VM_CLASSES")
        if np.any(columns["cores"] != np.asarray(cores)):
            raise TraceError("cores must be whole numbers")
        if np.any(columns["cores"] < 1) or not np.all(columns["memory_mb"] > 0):
            raise TraceError("VM must have >= 1 core and > 0 memory")
        if np.any(columns["start_interval"] < 0):
            raise TraceError("start_interval must be >= 0")
        _check_range(util, "cpu_util")
        np.clip(util, 0.0, 1.0, out=util)
        return cls._of(
            vm_ids=list(vm_ids),
            util=util,
            offsets=offsets,
            p95=_p95_by_length(util, offsets),
            **columns,
        )

    def __getstate__(self) -> dict:
        # A pickle ships the columns once, util in CSR order and only this
        # set's rows; record views are rebuilt on demand.
        state = {name: value for name, value in vars(self).items() if name[0] != "_"}
        return {**state, "util": self.util}

    def __setstate__(self, state: dict) -> None:
        self._assign(**state)

    def __repr__(self) -> str:
        return f"VMTraceSet({len(self)} VMs, {self.util.size} intervals)"

    def __len__(self) -> int:
        return len(self.vm_ids)

    @property
    def records(self) -> list[VMTraceRecord]:
        """Every row as a :class:`VMTraceRecord` view (built once)."""
        if self._records is None:
            self._records = [VMTraceRecord._view(self, i) for i in range(len(self))]
        return self._records

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx: int) -> VMTraceRecord:
        if isinstance(idx, slice):
            return self.records[idx]
        return VMTraceRecord._view(self, range(len(self))[idx])

    def series(self, i: int) -> np.ndarray:
        """Row ``i``'s CPU-utilisation series: a read-only view."""
        return self._buf[self._lo[i] : self._hi[i]]

    @property
    def lifetimes(self) -> np.ndarray:
        """Per-VM series length in intervals (int64)."""
        return np.diff(self.offsets)

    def take(self, idx) -> "VMTraceSet":
        """Rows ``idx``, in that order, as a new set: a gather, no re-validation.

        The per-VM columns are gathered now.  The series stay in this
        set's buffer, shared, until the new set's ``util`` is read (or it
        is pickled), so a shard split copies no series in the planning
        process.
        """
        idx = np.asarray(idx, dtype=np.int64)
        taken = VMTraceSet._of(
            vm_ids=[self.vm_ids[i] for i in idx.tolist()],
            vm_class=self.vm_class[idx],
            cores=self.cores[idx],
            memory_mb=self.memory_mb[idx],
            start_interval=self.start_interval[idx],
            util=self._buf,
            offsets=_offsets_of(self.lifetimes[idx]),
            p95=self.p95[idx],
        )
        taken._lo, taken._hi, taken._csr = self._lo[idx], self._hi[idx], False
        return taken

    def class_mask(self, vm_class: VMClass) -> np.ndarray:
        """Boolean mask of the rows of one workload class."""
        return self.vm_class == VM_CLASSES.index(vm_class)

    def by_class(self, vm_class: VMClass) -> "VMTraceSet":
        return self.take(np.flatnonzero(self.class_mask(vm_class)))

    def by_size_class(self, label: str) -> "VMTraceSet":
        labels = [_size_class(m) for m in self.memory_mb.tolist()]
        return self.take([i for i, got in enumerate(labels) if got == label])

    def by_peak_class(self, label: str) -> "VMTraceSet":
        labels = [_peak_class(p) for p in self.p95.tolist()]
        return self.take([i for i, got in enumerate(labels) if got == label])

    def horizon(self) -> int:
        """Last (exclusive) interval across all records."""
        if not len(self):
            return 0
        return int((self.start_interval + self.lifetimes).max())

    def total_core_intervals(self) -> float:
        return float((self.cores * self.lifetimes).sum())


@dataclass
class ContainerTraceRecord:
    """One container's lifetime in an Alibaba-style trace.

    All series share one length.  ``mem_bw_util`` is the memory-bus bandwidth
    utilization — the paper's proxy showing that high occupancy does not mean
    high memory activity (Figure 10).
    """

    container_id: str
    mem_util: np.ndarray
    mem_bw_util: np.ndarray
    disk_util: np.ndarray
    net_util: np.ndarray

    def __post_init__(self) -> None:
        self.mem_util = _check_utilization(self.mem_util, "mem_util")
        self.mem_bw_util = _check_utilization(self.mem_bw_util, "mem_bw_util")
        self.disk_util = _check_utilization(self.disk_util, "disk_util")
        self.net_util = _check_utilization(self.net_util, "net_util")
        n = self.mem_util.size
        for name in ("mem_bw_util", "disk_util", "net_util"):
            if getattr(self, name).size != n:
                raise TraceError("all container series must share one length")

    @property
    def lifetime_intervals(self) -> int:
        return int(self.mem_util.size)


@dataclass
class ContainerTraceSet:
    records: list[ContainerTraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx: int) -> ContainerTraceRecord:
        return self.records[idx]

    def series_matrix(self, name: str) -> np.ndarray:
        """Stack one series across containers (requires equal lengths)."""
        if not self.records:
            raise TraceError("empty trace set")
        arrays = [getattr(r, name) for r in self.records]
        lengths = {a.size for a in arrays}
        if len(lengths) != 1:
            raise TraceError("series lengths differ; cannot stack")
        return np.vstack(arrays)
