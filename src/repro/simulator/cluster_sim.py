"""Trace-driven cluster simulation (Section 7.4 of the paper).

Replays an Azure-style VM trace against a cluster of identical servers under
a deflation policy (or the preemption baseline), measuring:

* **failure probability** (Figure 20) — the probability that a deflatable
  VM is either refused at admission because no server can reclaim enough
  resources, or (baseline) preempted during its lifetime;
* **throughput loss** (Figure 21) — lost work as a fraction of demanded
  work, where a VM loses work whenever its CPU usage exceeds its deflated
  allocation (the area above the allocation in Figure 4);
* **revenue** (Figure 22) — deflatable-VM revenue under the static /
  priority / allocation pricing models, normalized per server so shrinking
  the cluster (raising overcommitment) shows up as a revenue-density gain.

Following the paper's setup (Section 7.1.2): interactive VMs are deflatable,
batch/unknown VMs are on-demand; priorities come from the 95th-percentile
CPU usage (4 levels); bin-packing and deflation consider CPU cores and
memory; the same trace is replayed while the server count shrinks to raise
overcommitment.

Every replay mode — one-shot ``run()``, stepped ``run_until()``,
snapshot-resumed, sharded, and failure-injected — runs through one
driver, ``ClusterSimulator._replay``: a cursor over the VM events sorted
once by ``_build_events``, merged by ``(t, kind, key)`` with the attached
:class:`~repro.failures.injector.FailureInjector`'s heap of failure events
(revocations, capacity dips, arrivals, and the requeues and drain ticks
they schedule; see :mod:`repro.failures`).  Without an injector the heap
is empty and the driver is the plain sorted loop.

Hot-path design (profiled on 20k-VM traces; every change is bit-identical
to :mod:`repro.simulator.reference`, the pinned pre-optimization snapshot —
see ``tests/simulator/test_golden_equivalence.py``.  One deliberate
exception: when partitioning is enabled with more pools than servers, the
``_assign_partitions`` trim-loop bug fix drops the *smallest-demand* pools
instead of the lowest-index ones, so that regime intentionally diverges
from the reference):

* events are sorted once, by one stable ``argsort`` of their times,
  instead of a Python tuple list with a lambda key;
* the cluster's committed CPU is maintained as an incrementally updated
  scalar, so peak tracking no longer scans ``committed[:, 0]`` per start
  event (exact, since core counts are integers);
* candidate-server index arrays are precomputed per pool instead of being
  rebuilt with ``np.arange``/``np.nonzero`` on every event;
* ``_rebalance`` skips the per-dimension policy solves entirely when a
  server has no pressure and nothing reclaimed (the dominant case below
  full subscription), and caches the per-server resident inputs between
  membership changes: one gather of the per-VM column block
  ``_vm_block`` that ``_refresh_derived`` builds (capacities, the pools
  ``M_i - vm_floor_i`` left by the floors admission reserves,
  priorities), taken as Python lists, and the reclaimed row as per-dimension
  sequential sums (``_sequential_sum``, the order of the ``sum(axis=0)``
  it replaces) instead of an ``(n, 2)`` scratch matrix; the policy solves,
  the allocation fractions and their change test run in Python floats
  (see :mod:`repro.core.deflation`);
* single server rows are updated in Python floats: ``_attach`` /
  ``_detach`` add a VM's capacities and floors element by element, the
  same IEEE additions as the row-vector ``+=``, and a one-row placement
  refresh computes the availability in Python floats
  (``_availability_row``, with ``_quotient`` reproducing NumPy's division
  by a revoked server's zero capacity); the per-server arrays are
  Fortran-ordered, so the fleet-wide fit tests read contiguous columns;
* per-VM allocation histories live in growable flat arrays (one bulk append
  per rebalance) rather than per-VM tuple lists, and ``_collect`` is
  vectorized: ``_vm_terms`` computes the terms of all VMs of one lifetime
  from ``(k, L)`` utilisation and allocation blocks (a C-contiguous row
  sum adds in the order of a 1-D ``.sum()``), never-deflated VMs take
  closed-form fast paths, and all pricing models are evaluated over the
  whole VM population with array ops (order-preserving ``cumsum``
  reductions keep float accumulation bit-identical to the original per-VM
  loop);
* ``_rebalance`` solves through per-server :meth:`DeflationPolicy.
  reclaim_plan` objects cached alongside the resident gathers, so the
  priority policy's water-fill is built at most once per membership
  change, and its breakpoint sort only when a solve needs it;
* placement scores cached per-server rows: every server's normalised
  availability vector, as the scorer's row state (cosine: the padded row
  and its norm), is recomputed only when a write to that server's
  ``committed`` / ``reclaimed`` / ``defl_cap`` / ``defl_floor`` /
  ``server_cap`` marks it dirty, so an arrival pays one gather and one
  gemv over its candidates instead of rebuilding every candidate's
  availability (``_fresh_rows``; ``tests/simulator/test_placement_rows.py``
  checks the cache against a full recomputation after every event); a
  single dirty row goes through the scorer's ``update_row`` hook, which
  for cosine is plain float arithmetic
  (``tests/simulator/test_hot_path_equivalence.py`` pins its bits);
* every departure goes through ``_handle_end_batch``; whenever no
  collector and no injector is attached, the driver hands it each
  timestamp's whole run of departures, so it rebalances each touched
  server once — in every replay mode, one-shot, stepped, resumed, and
  sharded alike, with no exception: ``_rebalance`` zeroes the reclaim of
  an emptied deflatable pool, so a batch that empties a server ends where
  the sequential loop does (``_handle_end_batch`` documents the
  equivalence argument; observed and failure-injected replays pass one
  departure per call and stay strictly per-event).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.deflation import DeflationPolicy, get_policy
from repro.core.vm import VMClass, priority_from_p95
from repro.errors import SimulationError
from repro.failures.injector import _END, _START
from repro.pricing.models import PRICING_MODELS, PricingModel
from repro.registry import create, validate
from repro.simulator.components import (
    AdmissionController,
    MetricsCollector,
    PlacementScorer,
)
from repro.traces.schema import VMTraceSet

#: Resource dimensions used for bin-packing and deflation (paper: "We
#: consider each VM's CPU core count and memory size").
_DIMS = 2  # 0 = cpu cores, 1 = memory MB

#: Per-VM metric terms, in :meth:`ClusterSimulator._vm_terms` order (also
#: the streaming-compaction cache's keys).
_TERM_NAMES = ("demanded", "lost", "deflation", "alloc_integral")

#: Most series entries :meth:`ClusterSimulator._vm_terms` stacks into one
#: block.  64 KiB blocks stay below the C allocator's default mmap
#: threshold, so freeing them does not raise it; 512 KiB blocks added about
#: 3.5 MB to flat-50k's peak RSS through that effect alone.
_TERMS_BLOCK = 1 << 13


def _quotient(a: float, b: float) -> float:
    """``a / b`` as NumPy computes it, also for ``b == 0``.

    A revoked server's capacity row is zero; NumPy yields ``±inf`` or NaN
    there where Python raises ``ZeroDivisionError``.  The rare zero case
    defers to NumPy's own scalar division, so even the NaN bits agree.
    """
    if b:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(a) / b)


def _sequential_sum(values: list[float]) -> float:
    """``values`` summed left to right from ``0.0``.

    The order ``x.sum(axis=0)`` uses down the rows of a 2-D array, where a
    1-D ``x.sum()`` is pairwise and the builtin ``sum()`` is compensated on
    Python 3.12 and later; all three can differ in the last bit.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _check_server_shape(name: str, value: float) -> None:
    """Refuse a server dimension no server can have (zero, negative, NaN, inf).

    Such a shape used to replay "ok" with every VM rejected, or divide by
    zero while sizing the cluster.
    """
    if not 0.0 < value < math.inf:
        raise SimulationError(f"{name} must be a finite number > 0, got {value!r}")


def _with_row(a: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``a`` with ``row`` appended, Fortran-ordered like every server array."""
    return np.asfortranarray(np.vstack([a, row]))


def _both_dims(mask: np.ndarray) -> np.ndarray:
    """``mask.all(axis=1)`` for a ``(rows, _DIMS)`` mask, as two column ANDs.

    The same booleans; the per-arrival fleet-wide fit tests call this, and
    a reduction over a length-2 axis costs more than the comparison itself.
    """
    return mask[:, 0] & mask[:, 1]


@dataclass(frozen=True)
class ClusterSimConfig:
    """One simulation run's knobs."""

    n_servers: int
    cores_per_server: float = 48.0
    memory_per_server_mb: float = 128 * 1024
    policy: str = "proportional"  # or "deterministic", "priority", "preemption"
    partitioned: bool = False
    #: Number of priority pools when partitioned (matches PRIORITY_LEVELS).
    n_partitions: int = 4
    #: Minimum allocation fraction for every deflatable VM (QoS floor,
    #: Eq. 2): no VM is deflated below this share of its capacity.
    min_fraction: float = 0.05
    #: Registered admission controller deciding server feasibility.
    admission: str = "deflation-aware"
    #: Registered placement scorer ranking feasible servers.
    scorer: str = "cosine"
    #: Registered metrics collectors observing the event loop; their
    #: ``finalize`` payloads land in ``ClusterSimResult.collected``.
    collectors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise SimulationError("need >= 1 server")
        _check_server_shape("cores_per_server", self.cores_per_server)
        _check_server_shape("memory_per_server_mb", self.memory_per_server_mb)
        if not (0.0 <= self.min_fraction < 1.0):
            raise SimulationError("min_fraction must be in [0, 1)")
        if self.policy != "preemption":
            get_policy(self.policy)  # validate eagerly
        elif self.admission != "deflation-aware":
            # The preemption baseline carries its own fixed admission rule
            # (fit-into-free-capacity, else preempt); silently ignoring a
            # configured controller would fake an ablation.
            raise SimulationError(
                "the preemption baseline does not use a pluggable admission "
                f"controller; admission={self.admission!r} would have no effect"
            )
        validate("admission", self.admission)
        validate("scorer", self.scorer)
        object.__setattr__(self, "collectors", tuple(self.collectors))
        for name in self.collectors:
            validate("metrics", name)


@dataclass
class ClusterSimResult:
    """Aggregate metrics of one run."""

    config: ClusterSimConfig
    n_vms: int
    n_deflatable: int
    n_placed: int
    n_rejected_deflatable: int
    n_rejected_on_demand: int
    n_preempted: int
    n_reclaim_failures: int
    peak_committed_cores: float
    total_capacity_cores: float
    throughput_loss: float
    mean_deflation: float
    revenue: dict[str, float]
    revenue_per_server: dict[str, float]
    #: ``finalize`` payloads of the configured metrics collectors, by name.
    collected: dict[str, object] = field(default_factory=dict)

    @property
    def overcommitment(self) -> float:
        """Peak committed CPU over capacity, minus one."""
        if self.total_capacity_cores <= 0:
            return 0.0
        return self.peak_committed_cores / self.total_capacity_cores - 1.0

    @property
    def failure_probability(self) -> float:
        """Fraction of deflatable VMs that failed (Figure 20's metric)."""
        if self.n_deflatable == 0:
            return 0.0
        failures = (
            self.n_rejected_deflatable + self.n_preempted + self.n_reclaim_failures
        )
        return failures / self.n_deflatable


class VMMetricTerms(NamedTuple):
    """Per-VM metric terms over the deflatable placed population.

    All arrays are aligned with ``sel`` (the ascending VM indices of
    deflatable placed VMs).  Produced by
    :meth:`ClusterSimulator._metric_terms`, reduced by
    :func:`reduce_vm_terms`; the sharded engine concatenates shard-local
    terms (with ``sel`` mapped to global indices), reorders them by global
    VM index, and runs the *same* reduction, which is what keeps its merged
    metrics bit-identical to a flat run.
    """

    sel: np.ndarray  # global VM indices (ascending)
    demanded: np.ndarray  # demanded work, core-intervals
    lost: np.ndarray  # lost work, core-intervals
    deflation: np.ndarray  # deflation integral, core-intervals
    alloc_integral: np.ndarray  # sum of per-interval allocation fractions
    cores: np.ndarray  # CPU capacity
    lifetimes: np.ndarray  # lifetime, intervals
    priorities: np.ndarray  # billing priority, snapshotted at construction


def reduce_vm_terms(terms: VMMetricTerms) -> dict:
    """Aggregate per-VM terms exactly as the original metrics pass did.

    Returns ``demanded_work`` / ``lost_work`` / ``deflation_sum`` /
    ``deflation_weight`` and the ``revenue`` dict over every registered
    pricing model.  All reductions are order-preserving sequential sums
    (``cumsum``) over the ``sel`` order, so callers feeding the same terms
    in the same order get bit-identical floats — the contract both
    :meth:`ClusterSimulator._collect` and the sharded engine's merger rely
    on.
    """
    sel = terms.sel
    cores_sel = terms.cores
    lifetime_sel = terms.lifetimes
    prio_sel = terms.priorities

    def seq_sum(values: np.ndarray) -> float:
        return float(np.cumsum(values)[-1]) if values.size else 0.0

    demanded_work = seq_sum(terms.demanded)
    lost_work = seq_sum(terms.lost)
    deflation_sum = seq_sum(terms.deflation)
    deflation_weight = seq_sum(lifetime_sel * cores_sel)

    # All pricing models over the whole population at once.  Per-VM rate
    # and revenue terms keep the scalar path's operation order
    # ((cores * lifetime) * rate), so the sums are bit-identical.  A
    # model that overrides the public revenue() hook (minimum billing
    # increments, per-VM fees, ...) must not be silently bypassed by the
    # rate-based vectorization — it falls back to the per-VM calls.
    mean_alloc = np.divide(
        terms.alloc_integral,
        lifetime_sel,
        out=np.ones(sel.size),
        where=lifetime_sel != 0.0,
    )
    alloc_frac = np.minimum(mean_alloc, 1.0)
    base_terms = cores_sel * lifetime_sel
    revenue = {}
    for name, model in PRICING_MODELS.items():
        if type(model).revenue is PricingModel.revenue:
            revenue[name] = seq_sum(base_terms * model.rate_batch(prio_sel, alloc_frac))
        else:
            total = 0.0
            for k in range(sel.size):
                total += model.revenue(
                    capacity_units=float(cores_sel[k]),
                    duration=float(lifetime_sel[k]),
                    priority=float(prio_sel[k]),
                    allocation_fraction=float(alloc_frac[k]),
                )
            revenue[name] = total

    return {
        "demanded_work": demanded_work,
        "lost_work": lost_work,
        "deflation_sum": deflation_sum,
        "deflation_weight": deflation_weight,
        "revenue": revenue,
    }


def result_metrics(agg: dict, n_servers: int) -> dict:
    """The :class:`ClusterSimResult` metric fields of one
    :func:`reduce_vm_terms` dict: ``throughput_loss``, ``mean_deflation``,
    ``revenue`` and ``revenue_per_server`` — shared by
    :meth:`ClusterSimulator._collect` and the sharded engine's merger."""
    demanded, weight, revenue = agg["demanded_work"], agg["deflation_weight"], agg["revenue"]
    return {
        "throughput_loss": (agg["lost_work"] / demanded) if demanded > 0 else 0.0,
        "mean_deflation": (agg["deflation_sum"] / weight) if weight else 0.0,
        "revenue": revenue,
        "revenue_per_server": {name: rev / n_servers for name, rev in revenue.items()},
    }


def vm_class_arrays(traces: VMTraceSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-VM ``(caps, priority, deflatable)`` arrays for one trace set.

    The paper's class mapping (Section 7.1.2): interactive VMs are
    deflatable with priorities from the 95th-percentile CPU usage;
    batch/unknown VMs are on-demand at priority 1.  The single source of
    truth shared by :meth:`ClusterSimulator._prepare_vms` and the sharded
    engine's splitter — the two must agree exactly for cross-engine
    bit-equivalence, so neither may reimplement it.
    """
    n = len(traces)
    vm_caps = np.zeros((n, _DIMS))
    vm_caps[:, 0] = traces.cores
    vm_caps[:, 1] = traces.memory_mb
    vm_deflatable = traces.class_mask(VMClass.INTERACTIVE)
    vm_prio = np.ones(n)
    vm_prio[vm_deflatable] = [priority_from_p95(p) for p in traces.p95[vm_deflatable].tolist()]
    return vm_caps, vm_prio, vm_deflatable


def partition_layout(
    vm_prio: np.ndarray,
    vm_deflatable: np.ndarray,
    vm_caps: np.ndarray,
    n_servers: int,
) -> tuple[list[float], np.ndarray]:
    """Priority-pool server layout for partitioned mode (Section 5.2.1).

    Returns ``(levels, counts)``: the sorted distinct deflatable priority
    levels present in the trace (rounded to 6 decimals) and the server
    count of every pool — one pool per level plus a trailing on-demand
    pool — sized by each class's committed-capacity share of the trace.
    Pools are laid out contiguously, so pool ``k`` owns global server
    indices ``[counts[:k].sum(), counts[:k].sum() + counts[k])``.

    Shared by :meth:`ClusterSimulator._assign_partitions` and the sharded
    engine's splitter (:mod:`repro.simulator.sharded`), which relies on the
    contiguous layout as its shard boundary — the two must agree exactly
    for cross-engine bit-equivalence.
    """
    levels = sorted(set(np.round(vm_prio[vm_deflatable], 6)))
    # Demand share per pool (deflatable levels + on-demand pool).
    shares = []
    for lvl in levels:
        mask = vm_deflatable & (np.abs(vm_prio - lvl) < 1e-6)
        shares.append(vm_caps[mask, 0].sum())
    shares.append(vm_caps[~vm_deflatable, 0].sum())
    shares = np.asarray(shares, dtype=np.float64)
    shares = shares / shares.sum() if shares.sum() > 0 else np.ones_like(shares) / len(shares)
    counts = np.maximum(1, np.round(shares * n_servers).astype(int))
    # Trim to exactly n_servers without violating the one-server minimum:
    # shrink the largest pool that still has more than one server.  Only
    # when there are more pools than servers is the minimum infeasible —
    # then drop whole pools, smallest demand share first, so the busiest
    # priority levels keep their servers.
    while counts.sum() > n_servers:
        above_min = counts > 1
        if np.any(above_min):
            candidates = np.where(above_min, counts, -1)
            counts[np.argmax(candidates)] -= 1
        else:
            alive = np.nonzero(counts > 0)[0]
            drop = alive[np.argmin(shares[alive])]
            counts[drop] = 0
    while counts.sum() < n_servers:
        counts[np.argmax(shares)] += 1
    return levels, counts


def vm_pool_assignment(
    vm_prio: np.ndarray, vm_deflatable: np.ndarray, levels: list[float]
) -> np.ndarray:
    """Pool index of every VM under a :func:`partition_layout` of ``levels``.

    Deflatable VMs route to their priority level's pool (unknown levels
    default to pool 0, preserving the original per-event lookup's
    behaviour); on-demand VMs route to the trailing pool ``len(levels)``.
    Shared by :meth:`ClusterSimulator._refresh_derived` and the sharded
    splitter.
    """
    lvls = np.round(vm_prio, 6)
    pool = np.full(vm_prio.size, len(levels), dtype=np.int64)
    pool[vm_deflatable] = 0
    for k, lvl in enumerate(levels):
        pool[vm_deflatable & (lvls == lvl)] = k
    return pool


class ClusterSimulator:
    """Array-backed replay of one trace against one configuration.

    Admission feasibility, server scoring, and metrics collection are
    pluggable components resolved by name from the unified registry (kinds
    ``admission``, ``scorer``, ``metrics``); the event loop itself stays
    fixed.
    """

    #: Subclasses may allow empty trace sets (the sharded engine replays a
    #: VM-less pool so its servers still see failure events and count
    #: toward capacity); the public simulator keeps rejecting them.
    _allow_empty = False

    #: Optional ``(t, kind, key)`` callback the driver invokes after every
    #: dispatched event, or once after a batch of same-timestamp departures
    #: (keyed by its first VM); the sharded engine's shard recorder logs
    #: there.
    _on_step = None

    def __init__(self, traces: VMTraceSet, config: ClusterSimConfig) -> None:
        if len(traces) == 0 and not self._allow_empty:
            raise SimulationError("empty trace set")
        self.traces = traces
        self.config = config
        #: Optional failure injector (see :meth:`attach_failures`); when
        #: None the driver's failure heap stays empty.
        self._injector = None
        #: Liveness mask over servers, created lazily on the first
        #: revocation (None = everything alive, the failure-free fast path).
        self._server_alive: np.ndarray | None = None
        #: When not None, :meth:`_preempt` appends each victim here — the
        #: injector uses it to attribute preemption cascades triggered by
        #: failure-driven placements.
        self._preempt_log: list[int] | None = None
        #: The VM event cursor (:meth:`_build_events`), opened by the first
        #: :meth:`run` / :meth:`run_until` or by a snapshot restore.
        self._stream: dict | None = None
        #: Per-VM metric terms finalized by :meth:`compact_history` before
        #: their history rows were dropped (streaming bounded-memory mode);
        #: consulted by :meth:`_metric_terms` instead of recomputing.
        self._final_terms: dict[str, np.ndarray] | None = None
        self._policy: DeflationPolicy | None = (
            None if config.policy == "preemption" else get_policy(config.policy)
        )
        self._admission: AdmissionController = create("admission", config.admission)
        self._scorer: PlacementScorer = create("scorer", config.scorer)
        self._collectors: tuple[MetricsCollector, ...] = tuple(
            create("metrics", name) for name in config.collectors
        )
        self._prepare_vms()
        self._prepare_servers()

    # -- setup ---------------------------------------------------------------------

    def _prepare_vms(self) -> None:
        n = len(self.traces)
        self.vm_caps, self.vm_prio, self.vm_deflatable = vm_class_arrays(self.traces)
        #: The priority each VM is billed at, snapshotted here: post-build
        #: surgery on ``vm_prio`` (the priority-level ablation) changes
        #: deflation decisions, not the agreed price.
        self.vm_bill_prio = self.vm_prio.copy()
        #: Hosting server per VM (-1 = not placed).
        self.vm_server = np.full(n, -1, dtype=np.int64)
        # Outcome flags.  ``vm_preempted`` means the VM ended early, for any
        # cause and any class; failure counts restrict it to deflatable VMs.
        self.vm_placed = np.zeros(n, dtype=bool)
        self.vm_rejected = np.zeros(n, dtype=bool)
        self.vm_preempted = np.zeros(n, dtype=bool)
        self.vm_reclaim_failure = np.zeros(n, dtype=bool)
        self.vm_start = self.traces.start_interval.copy()
        self.vm_lifetime = self.traces.lifetimes
        self.vm_end = self.vm_start + self.vm_lifetime
        # Every policy respects the configured QoS minimum fraction, and
        # its own floors may raise it (priority/deterministic deflate only
        # to pi*M); the preemption baseline keeps the minimum.
        base_floor = self.vm_caps * self.config.min_fraction
        if self._policy is None:
            self.vm_floor = base_floor
        else:
            self.vm_floor = np.stack(
                [
                    self._policy.floors(self.vm_caps[:, r], base_floor[:, r], self.vm_prio)
                    for r in range(_DIMS)
                ],
                axis=1,
            )
        self.vm_floor[~self.vm_deflatable] = 0.0
        # Growable flat allocation-history log: (vm, interval, frac) triples
        # in event order, bulk-appended per rebalance.  ``_last_frac`` holds
        # each VM's most recently recorded fraction (the old per-VM
        # ``hist[-1][1]`` guard).
        self._hist_vm = np.empty(max(4 * n, 64), dtype=np.int64)
        self._hist_t = np.empty(self._hist_vm.size, dtype=np.float64)
        self._hist_f = np.empty(self._hist_vm.size, dtype=np.float64)
        self._hist_n = 0
        self._hist_sorted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._last_frac = [1.0] * n

    def _prepare_servers(self) -> None:
        cfg = self.config
        s = cfg.n_servers
        # Per-server ``(s, _DIMS)`` arrays are Fortran-ordered: each
        # dimension is one contiguous column, which halves the cost of the
        # fleet-wide fit tests every arrival runs.  Elementwise results do
        # not depend on the layout; whatever replaces one of these arrays
        # (a server arrival, a snapshot restore) keeps it.
        self.server_cap = np.asfortranarray(
            np.tile(np.array([cfg.cores_per_server, cfg.memory_per_server_mb]), (s, 1))
        )
        self.committed = np.zeros((s, _DIMS), order="F")
        self.reclaimed = np.zeros((s, _DIMS), order="F")  # from deflatable VMs
        self.defl_cap = np.zeros((s, _DIMS), order="F")  # sum of deflatable capacities
        self.defl_floor = np.zeros((s, _DIMS), order="F")  # sum of policy floors
        # Resident sets are insertion-ordered dicts keyed by VM index: O(1)
        # removal (the old lists paid an O(n) ``list.remove`` per departure)
        # while preserving the arrival order that deterministic policies use
        # for tie-breaking.
        self.residents: list[dict[int, None]] = [{} for _ in range(s)]
        self.resident_deflatable: list[dict[int, None]] = [{} for _ in range(s)]
        #: Provisioned fleet size at construction; server arrivals (elastic
        #: transient pools) grow the live arrays past it but never this.
        self._n_initial_servers = s
        #: Servers currently draining toward an evacuation deadline; while
        #: non-zero, placement filters candidates through the liveness mask
        #: (a draining server keeps its capacity, so capacity checks alone
        #: cannot exclude it).
        self._draining_servers = 0
        #: Incrementally maintained ``committed[:, 0].sum()`` (exact: core
        #: counts are integers, so adds/subtracts never lose bits).
        self._committed_cores = 0.0
        #: Running maximum of ``_committed_cores``, raised in :meth:`_admit`
        #: (the only place committed cores grow past a prior value).
        self._peak_committed = 0.0
        #: Per-server cached (idx, caps, floors, prios) gathers over the
        #: deflatable residents; invalidated on membership changes so
        #: ``_rebalance`` stops paying ``np.fromiter`` + fancy-indexing on
        #: every event.
        self._srv_cache: list[tuple | None] = [None] * s
        #: Per-server cached eviction order (ascending priority) for the
        #: preemption baseline; same invalidation discipline.
        self._srv_victims: list[list[int] | None] = [None] * s
        #: ``server_cap + 1e-9``, hoisted out of the per-event comparisons;
        #: :meth:`_set_capacity` keeps it current.
        self._cap_eps = self.server_cap + 1e-9
        #: The scorer's :meth:`~PlacementScorer.row_state` of every server's
        #: normalised availability row (None = rebuild every row).  Writers
        #: of a server's ``committed`` / ``reclaimed`` / ``defl_cap`` /
        #: ``defl_floor`` / ``server_cap`` row add it to ``_dirty_rows``;
        #: :meth:`_fresh_rows` recomputes just those before scoring.
        self._rows: tuple[np.ndarray, ...] | None = None
        self._dirty_rows: set[int] = set()
        #: Candidate index arrays, precomputed once (read-only).
        self._all_servers = np.arange(s)
        # Partition assignment: deflatable pools 0..n_partitions-1 by
        # priority level, plus one on-demand pool.  Server shares follow the
        # paper's advice to size pools by the workload mix (we use committed
        # capacity shares of each class in the trace).
        self.server_pool = np.full(s, -1, dtype=np.int64)
        if cfg.partitioned:
            self._assign_partitions()
        self._refresh_derived()

    def _assign_partitions(self) -> None:
        cfg = self.config
        levels, counts = partition_layout(
            self.vm_prio, self.vm_deflatable, self.vm_caps, cfg.n_servers
        )
        pools = np.repeat(np.arange(len(counts)), counts)
        self.server_pool = pools[: cfg.n_servers]
        self._pool_of_level = {lvl: k for k, lvl in enumerate(levels)}
        self._on_demand_pool = len(levels)
        # Precompute pool membership so _candidate_servers stops rebuilding
        # np.nonzero masks per event.
        self._pool_members = [
            np.nonzero(self.server_pool == k)[0] for k in range(len(counts))
        ]

    def _refresh_derived(self) -> None:
        """(Re)build caches derived from the per-VM arrays.

        Called at construction, when the replay's stream opens, and by a
        snapshot restore: the blessed ``engine.build()`` flow mutates
        ``vm_prio`` / ``vm_floor`` / ``vm_caps`` on the built simulator
        before replaying (e.g. the priority-level ablation), and these
        snapshots must reflect that surgery exactly like the reference's
        live per-event reads did.  Demand rows divide by the configured
        server shape: a cold replay refreshes before any failure event can
        scale or zero a server's row, so it is the same value a resumed
        replay needs.
        """
        cfg = self.config
        caps, floor = self.vm_caps, self.vm_floor
        # Scalar-friendly copies (plain Python floats) for _attach/_detach
        # and the preemption victim scan, where NumPy scalar and row-ufunc
        # overhead dominated the two adds.
        self._vm_cores_list = caps[:, 0].tolist()
        self._vm_mem_list = caps[:, 1].tolist()
        #: Normalized demand rows for _choose_server.
        self._demand_norm = caps / np.array([cfg.cores_per_server, cfg.memory_per_server_mb])
        # Each replay mode builds only the caches it reads.
        if self._policy is None:
            # The preemption baseline's fit test and victim order.
            self._vm_prio_list = self.vm_prio.tolist()
            self._vm_caps_eps = caps - 1e-9
        else:
            #: Per-VM columns a rebalance reads for a server's deflatable
            #: residents, one row each: CPU and memory capacity, CPU and
            #: memory pool ``M_i - floor_i``, priority, and the
            #: allocation-fraction denominator.  ``vm_floor`` already holds
            #: the policy's floors (``_prepare_vms``, or surgery after the
            #: build), the same floors admission reserves, so the pool
            #: only clamps it to the capacity and never re-applies
            #: ``policy.floors``.  One ``take`` of a server's residents and
            #: one ``tolist`` yield every input as a list.
            pool = caps - np.minimum(floor, caps)
            self._vm_block = np.stack(
                [caps[:, 0], caps[:, 1], pool[:, 0], pool[:, 1], self.vm_prio,
                 np.maximum(caps[:, 0], 1e-12)]
            )
        if cfg.partitioned:
            self._vm_pool = vm_pool_assignment(
                self.vm_prio, self.vm_deflatable, list(self._pool_of_level)
            )

    # -- failure injection -----------------------------------------------------------

    def attach_failures(self, injector) -> None:
        """Attach a :class:`~repro.failures.injector.FailureInjector`.

        With an injector attached, :meth:`run` enters through
        :meth:`FailureInjector.drive`, and the driver merges the injector's
        revocation/capacity-dip schedule (plus dynamically requeued
        restarts and drain ticks) with the VM event cursor; VM events still
        reach the same ``_handle_start`` / ``_handle_end_batch`` handlers,
        one departure per call.  The
        engine calls this for scenarios carrying a ``failures`` spec;
        direct simulator users may call it before :meth:`run`.
        """
        self._injector = injector

    def _mark_revoked(self, server: int) -> None:
        """Take a server out of service permanently (failure injection).

        Zeroing the capacity makes the server infeasible for every normal
        placement test; the liveness mask additionally guards the one case
        capacity alone cannot — deflation-aware admission of a VM whose
        own reclaimable pool covers its entire demand (a zero floor), which
        would otherwise "fit" on a dead server and poison the scorer's
        capacity-normalized ranking with divisions by zero.
        """
        if self._server_alive is None:
            self._server_alive = np.ones(len(self.residents), dtype=bool)
        self._server_alive[server] = False
        self._set_capacity(server, 0.0)

    def _set_capacity(self, server: int, row) -> None:
        """Write one server's capacity row (revocations and capacity dips)."""
        self.server_cap[server] = row
        self._cap_eps[server] = self.server_cap[server] + 1e-9
        self._dirty_rows.add(server)

    def _mark_draining(self, server: int) -> None:
        """Stop placements onto a server pending revocation (warning window).

        The server keeps its capacity — residents run and rebalance as
        usual until the evacuation deadline — so exclusion works through
        the liveness mask plus the ``_draining_servers`` placement filter,
        not through zeroed capacity.
        """
        if self._server_alive is None:
            self._server_alive = np.ones(len(self.residents), dtype=bool)
        self._server_alive[server] = False
        self._draining_servers += 1

    def _end_draining(self, server: int) -> None:
        """The drain resolved (deadline reached); the server stays dead."""
        self._draining_servers -= 1

    def _attach_server(self, index: int) -> None:
        """Attach one arriving server at nominal shape (failure injection).

        Grows every per-server array and cache by one row.  Arrivals must
        be contiguous — ``index`` is the current server count — so global
        and shard-local replays agree on numbering.  In partitioned mode
        the arrival joins pool ``arrival-ordinal mod n_pools``, a static
        rule the sharded engine's slicer replicates.
        """
        n = len(self.residents)
        if index != n:
            raise SimulationError(
                f"server arrivals must be contiguous: expected index {n}, got {index}"
            )
        cfg = self.config
        row = np.array([[cfg.cores_per_server, cfg.memory_per_server_mb]])
        self.server_cap = _with_row(self.server_cap, row)
        self._cap_eps = _with_row(self._cap_eps, row + 1e-9)
        zero = np.zeros((1, _DIMS))
        self.committed = _with_row(self.committed, zero)
        self.reclaimed = _with_row(self.reclaimed, zero)
        self.defl_cap = _with_row(self.defl_cap, zero)
        self.defl_floor = _with_row(self.defl_floor, zero)
        self.residents.append({})
        self.resident_deflatable.append({})
        self._srv_cache.append(None)
        self._srv_victims.append(None)
        self._all_servers = np.arange(n + 1)
        self._rows = None
        if self._server_alive is not None:
            self._server_alive = np.append(self._server_alive, True)
        if cfg.partitioned:
            pool = (index - self._n_initial_servers) % len(self._pool_members)
            self.server_pool = np.append(self.server_pool, pool)
            self._pool_members[pool] = np.append(self._pool_members[pool], index)
        else:
            self.server_pool = np.append(self.server_pool, -1)

    # -- the replay driver ------------------------------------------------------------

    def _build_events(self) -> dict:
        """The VM event cursor: ``(t, kind, vm)`` columns, globally sorted.

        Ends before starts at the same interval (the injector's ``_END <
        _START`` codes), ties broken by VM index — the exact key the old
        Python ``events.sort(key=...)`` used, minus the per-element lambda
        calls.  One stable sort on ``t`` gives that order: the events start
        out as every end, then every start, each run in VM order, and a
        stable sort keeps that order among equal times (a structured-array
        sort on ``(t, kind, vm)`` cost about ten times as much).  Returned
        as plain-list columns plus the ``cursor`` (next event) and the
        ``at`` boundary, which is the whole resumable state of the VM side
        of a replay.
        """
        n = len(self.traces)
        t = np.concatenate([self.vm_end, self.vm_start]).astype(np.float64)
        order = np.argsort(t, kind="stable")
        starts = order >= n
        return {
            "t": t[order].tolist(),
            "kind": np.where(starts, _START, _END).tolist(),
            "vm": (order - n * starts).tolist(),
            "cursor": 0,
            "at": 0.0,
        }

    def _replay(self, until: float | None) -> None:
        """The event loop: process every event with ``t < until`` (all if None).

        Opens the stream on first use (derived caches refresh, the VM
        cursor is built, an attached injector builds its failure heap).
        VM events come off the sorted cursor, failure events off the
        injector's heap; the two merge by ``(t, kind, key)`` — the heap
        never holds END/START kinds, so no two events tie.  Dynamic pushes
        (requeues, drain ticks, deadlines) never sort before the event
        that made them, so stopping at ``until`` processes exactly the
        events an uninterrupted replay would have processed before that
        boundary, and any sequence of calls is bit-identical to one.
        """
        if self._stream is None:
            self._refresh_derived()  # pick up any post-build surgery
            self._stream = self._build_events()
            if self._injector is not None:
                self._injector.start(self)
        stream = self._stream
        t_list, kind_list, vm_list = stream["t"], stream["kind"], stream["vm"]
        i, n = stream["cursor"], len(t_list)
        stop = math.inf if until is None else until
        injector = self._injector
        heap = [] if injector is None else injector._heap
        on_step = self._on_step
        handle_start, handle_ends = self._handle_start, self._handle_end_batch
        # Observer-free failure-free replays coalesce each timestamp's run
        # of departures into one rebalance per touched server — see
        # _handle_end_batch for why this is bit-identical to per-event.
        batch_ends = not self._collectors and injector is None
        while True:
            ht, hk = (heap[0][0], heap[0][1]) if heap else (math.inf, 0)
            # VM events that sort before the failure heap's top.
            while i < n:
                t = t_list[i]
                if t >= stop or t > ht:
                    break
                kind = kind_list[i]
                if t == ht and kind > hk:
                    break
                j = i + 1
                if kind == _END:
                    if batch_ends:
                        while j < n and kind_list[j] == _END and t_list[j] == t:
                            j += 1
                    handle_ends(t, vm_list[i:j])
                else:
                    handle_start(t, vm_list[i])
                if on_step is not None:
                    on_step(t, kind, vm_list[i])
                i = j
            if ht >= stop:
                break
            t, kind, key, aux = heapq.heappop(heap)
            injector.handle(self, t, kind, key, aux)
            if on_step is not None:
                on_step(t, kind, key)
        stream["cursor"] = i
        if until is not None and until > stream["at"]:
            stream["at"] = until

    def run(self) -> ClusterSimResult:
        """Replay to the end and collect.

        Finishes an open stream (after :meth:`run_until` or a snapshot
        restore) or replays from the start.  On a finished stream it only
        re-collects, so repeated calls return equal results.
        """
        if self._injector is not None:
            self._injector.drive(self)
        else:
            self._replay(None)
        return self._collect()

    # -- checkpoint/resume ---------------------------------------------------------

    def run_until(self, t: float) -> None:
        """Advance the replay through every event strictly before ``t``.

        Subsequent calls must not move backwards; ``inf`` runs to the end.
        After any number of ``run_until`` steps, :meth:`run` finishes the
        remainder and collects — bit-identical to one uninterrupted
        :meth:`run`.  :meth:`snapshot` freezes the state at the current
        boundary.
        """
        t = float(t)
        if math.isnan(t):
            raise SimulationError("run_until(nan): the boundary must be a number")
        at = 0.0 if self._stream is None else self._stream["at"]
        if t < at:
            raise SimulationError(
                f"run_until({t}) would move backwards (stream is at "
                f"{at}); snapshots, not rewinds, go back in time"
            )
        self._replay(t)

    def snapshot(self):
        """Freeze the current :meth:`run_until` boundary as a `SimSnapshot`."""
        from repro.simulator.snapshot import capture

        return capture(self)

    def restore(self, snap) -> None:
        """Reinstate a :meth:`snapshot` into this freshly built simulator."""
        from repro.simulator.snapshot import restore_into

        restore_into(self, snap)

    def compact_history(self, before: float) -> int:
        """Finalize VMs that ended before ``before`` and drop their history.

        The bounded-memory half of streaming: a long trace advances with
        :meth:`run_until` and periodically compacts, keeping the history
        log proportional to the *live* population instead of the whole
        trace.  Per-VM metric terms are pure once a VM's events are behind
        the stream boundary (requeued restarts always fire before the VM's
        own end), so they are computed now, cached in ``_final_terms``, and
        the rows dropped; :meth:`_metric_terms` serves them back verbatim.
        Returns the number of history rows dropped.
        """
        stream = self._stream
        if stream is None:
            raise SimulationError("compact_history requires an open stream (run_until)")
        before = float(before)
        if before > stream["at"]:
            raise SimulationError(
                f"compact_history({before}) is ahead of the stream boundary "
                f"{stream['at']}: only fully processed prefixes can be finalized"
            )
        n = len(self.traces)
        if self._final_terms is None:
            self._final_terms = {
                "mask": np.zeros(n, dtype=bool),
                "demanded": np.zeros(n),
                "lost": np.zeros(n),
                "deflation": np.zeros(n),
                "alloc_integral": np.zeros(n),
            }
        final = self._final_terms
        newly = np.nonzero(
            self.vm_deflatable & self.vm_placed & (self.vm_end < before) & ~final["mask"]
        )[0]
        pending = self._injector._requeue_pending if self._injector is not None else None
        if pending:
            # A restart is still in flight for these; finalize them later.
            newly = newly[[i not in pending for i in newly.tolist()]]
        for name, values in zip(_TERM_NAMES, self._vm_terms(newly)):
            final[name][newly] = values
        final["mask"][newly] = True
        nh = self._hist_n
        keep = ~final["mask"][self._hist_vm[:nh]]
        kept = int(keep.sum())
        dropped = nh - kept
        if dropped:
            for name in ("_hist_vm", "_hist_t", "_hist_f"):
                arr = getattr(self, name)
                arr[:kept] = arr[:nh][keep]
            self._hist_n = kept
            self._hist_sorted = None
        return dropped

    # -- event handlers -----------------------------------------------------------

    def _candidate_servers(self, vm: int) -> np.ndarray:
        """Cached candidate index array for this VM's pool (do not mutate)."""
        if not self.config.partitioned:
            return self._all_servers
        return self._pool_members[self._vm_pool[vm]]

    def _handle_start(self, t: float, vm: int) -> None:
        if not self._place(t, vm):
            self._reject(t, vm)

    def _place(self, t: float, vm: int) -> bool:
        """Admit ``vm`` onto the best feasible server; False if none can.

        This is the placement path shared by trace arrivals, evacuations
        off revoked servers, and requeued restarts: feasibility filtering
        (admission component), no-deflation preference, scoring, admission
        bookkeeping, and the post-admit rebalance.  Rejection bookkeeping
        stays with the callers — an arrival that fails is *rejected*, an
        evacuee that fails is *lost*.
        """
        demand = self.vm_caps[vm]
        candidates = self._candidate_servers(vm)
        if self._draining_servers:
            # Draining servers keep full capacity until their deadline, so
            # only the liveness mask can exclude them (this also drops
            # already-revoked servers, which zeroed capacity would have
            # excluded anyway).  Gated on the counter: failure-free runs
            # and drain-free failure runs never pay the gather.
            candidates = candidates[self._server_alive[candidates]]
        if candidates.size == 0:
            return False

        if self._policy is None:
            return self._place_preemption(t, vm, candidates)

        # Prefer servers that can host the VM without deflating anyone —
        # "when there is surplus capacity in the cluster, the cloud manager
        # allocates these resources to lower priority VMs (without deflating
        # them)" (Section 5).  Only under genuine pressure do we fall back
        # to deflation-requiring servers, and only then is the admission
        # controller consulted (see AdmissionController).
        if candidates is self._all_servers:  # gather-free: rows 0..s-1
            no_deflation = _both_dims(self.committed + demand <= self._cap_eps)
        else:
            no_deflation = _both_dims(
                self.committed[candidates] + demand <= self._cap_eps[candidates]
            )
        fits = np.count_nonzero(no_deflation)
        if fits == no_deflation.size:
            pool_idx = candidates
        elif fits:
            pool_idx = candidates[no_deflation]
        else:
            pool_idx = self._admission.feasible(self, vm, candidates)
            if self._server_alive is not None and pool_idx.size:
                pool_idx = pool_idx[self._server_alive[pool_idx]]
            if pool_idx.size == 0:
                return False

        if pool_idx.size == 1:
            # argmax over one candidate is that candidate; skip the scoring.
            server = int(pool_idx[0])
        else:
            server = self._choose_server(vm, pool_idx)

        self._admit(t, vm, server)
        self._rebalance(t, server)
        return True

    def _choose_server(self, vm: int, pool_idx: np.ndarray) -> int:
        """Rank candidate servers with the configured scorer; argmax wins.

        Scores the candidates' cached rows (:meth:`_fresh_rows`): demand
        and availability are both capacity fractions, so scorers compare
        shapes, not raw units (memory MB would dwarf CPU cores).
        """
        rows = self._fresh_rows()
        if pool_idx is not self._all_servers:
            # ``take`` copies the same rows as fancy indexing, at a fraction
            # of its per-call cost.
            rows = tuple([a.take(pool_idx, axis=0) for a in rows])
        scores = self._scorer.score_rows(self._demand_norm[vm], rows)
        return int(pool_idx[int(scores.argmax())])

    def _fresh_rows(self) -> tuple[np.ndarray, ...]:
        """Every server's scorer row state, with the dirty rows recomputed.

        Rows are independent (elementwise formulas, row-wise scorer state),
        so recomputing a few of them gives the same bits as recomputing all.
        """
        rows, dirty = self._rows, self._dirty_rows
        if rows is not None and len(dirty) <= 1:
            if dirty:
                # The common case (one admit or departure since the last
                # placement): one row in Python floats, through the
                # scorer's per-row hook.
                server = dirty.pop()
                self._scorer.update_row(rows, server, self._availability_row(server))
            return rows
        idx = slice(None) if rows is None else np.fromiter(dirty, np.int64, len(dirty))
        dirty.clear()
        if self._server_alive is None:
            state = self._scorer.row_state(self._availability(idx))
        else:
            # Revoked servers have zero capacity; the liveness mask keeps
            # their (NaN) rows out of every ranking.
            with np.errstate(divide="ignore", invalid="ignore"):
                state = self._scorer.row_state(self._availability(idx))
        if rows is None:
            self._rows = tuple(state)
        else:
            for cached, fresh in zip(rows, state):
                cached[idx] = fresh
        return self._rows

    def _availability(self, idx) -> np.ndarray:
        """Availability rows of servers ``idx`` as capacity fractions.

        Section 5.2: free capacity plus the deflatable headroom divided by
        the overcommitment.  Under the preemption baseline nothing is ever
        reclaimed or deflated, so the row is the free capacity alone.
        """
        com, recl, scap = self.committed[idx], self.reclaimed[idx], self.server_cap[idx]
        free = np.maximum(scap - (com - recl), 0.0)
        if self._policy is None:
            return free / scap
        headroom = np.maximum((self.defl_cap[idx] - recl) - self.defl_floor[idx], 0.0)
        oc = np.maximum(com / scap, 1.0)
        return (free + headroom / oc) / scap

    def _availability_row(self, server: int) -> tuple[float, float]:
        """:meth:`_availability` of one server, in Python floats.

        The same IEEE operations in the same order, so the same bits:
        ``max(x, c)`` returns ``x`` when ``x`` is NaN, as ``np.maximum``
        does, and :func:`_quotient` reproduces NumPy's quotient by a zero
        capacity (a revoked server), where Python would raise.
        """
        com0, com1 = self.committed[server].tolist()
        recl0, recl1 = self.reclaimed[server].tolist()
        cap0, cap1 = self.server_cap[server].tolist()
        free0 = max(cap0 - (com0 - recl0), 0.0)
        free1 = max(cap1 - (com1 - recl1), 0.0)
        if self._policy is None:
            return _quotient(free0, cap0), _quotient(free1, cap1)
        dc0, dc1 = self.defl_cap[server].tolist()
        df0, df1 = self.defl_floor[server].tolist()
        head0 = max((dc0 - recl0) - df0, 0.0)
        head1 = max((dc1 - recl1) - df1, 0.0)
        oc0 = max(_quotient(com0, cap0), 1.0)
        oc1 = max(_quotient(com1, cap1), 1.0)
        return (
            _quotient(free0 + head0 / oc0, cap0),
            _quotient(free1 + head1 / oc1, cap1),
        )

    def _admit(self, t: float, vm: int, server: int) -> None:
        self.vm_placed[vm] = True
        self._attach(vm, server)
        if self._committed_cores > self._peak_committed:
            self._peak_committed = self._committed_cores
        if self.vm_deflatable[vm]:
            self._append_history_one(vm, t, 1.0)
            self._last_frac[vm] = 1.0
        for c in self._collectors:
            c.on_admit(t, vm, server, self)

    def _reject(self, t: float, vm: int) -> None:
        self.vm_rejected[vm] = True
        for c in self._collectors:
            c.on_reject(t, vm, self)

    def _attach(self, vm: int, server: int) -> None:
        """Add a VM to a server's bookkeeping and record it as the host.

        The inverse of :meth:`_detach`: membership and capacity only.
        :meth:`_admit` adds the outcome, peak, history and collector
        updates of a placement; the failure injector calls this directly
        to put back a drain migration that found no destination.
        """
        # Element-wise adds of the two row entries: the same IEEE
        # additions as the row-vector ``+=``, without its ufunc dispatch.
        c0, c1 = self._vm_cores_list[vm], self._vm_mem_list[vm]
        com = self.committed
        com[server, 0] += c0
        com[server, 1] += c1
        self._dirty_rows.add(server)
        self._committed_cores += c0
        self.residents[server][vm] = None
        self.vm_server[vm] = server
        if self.vm_deflatable[vm]:
            self.resident_deflatable[server][vm] = None
            f0, f1 = self.vm_floor[vm].tolist()
            dcap, dfloor = self.defl_cap, self.defl_floor
            dcap[server, 0] += c0
            dcap[server, 1] += c1
            dfloor[server, 0] += f0
            dfloor[server, 1] += f1
            self._srv_cache[server] = None
            self._srv_victims[server] = None

    def _detach(self, vm: int, server: int) -> None:
        """Remove a VM from a server's bookkeeping (no outcome changes).

        Shared by normal departures, preemptions, and failure-injected
        evacuations/kills; the caller decides what the removal *means*.
        """
        c0, c1 = self._vm_cores_list[vm], self._vm_mem_list[vm]
        com = self.committed
        com[server, 0] -= c0
        com[server, 1] -= c1
        self._dirty_rows.add(server)
        self._committed_cores -= c0
        del self.residents[server][vm]
        if self.vm_deflatable[vm]:
            del self.resident_deflatable[server][vm]
            f0, f1 = self.vm_floor[vm].tolist()
            dcap, dfloor = self.defl_cap, self.defl_floor
            dcap[server, 0] -= c0
            dcap[server, 1] -= c1
            dfloor[server, 0] -= f0
            dfloor[server, 1] -= f1
            self._srv_cache[server] = None
            self._srv_victims[server] = None

    def _handle_end_batch(self, t: float, vms: list) -> None:
        """Departures at one timestamp, with a single rebalance per server.

        The driver (:meth:`_replay`) sends every departure here.  Whenever
        no collector and no injector is attached it passes the timestamp's
        whole run of departures, in every replay mode — one-shot, stepped,
        snapshot-resumed, and sharded; observed and failure-injected
        replays pass one VM per call, which keeps the per-event order
        detach, ``on_end``, rebalance.  A VM that was never placed or
        already ended early is skipped.  A ``run_until`` boundary never
        splits a batch: it cuts by time, and a batch shares one timestamp.
        Equivalence with the sequential loop, in full:

        * Detaches are independent per-VM bookkeeping, applied in the same
          event order, so the post-batch membership and committed totals are
          identical.
        * Rebalance recomputes targets from capacities and the server's
          *current* pressure (recompute-from-capacity semantics), so one
          rebalance over the final membership lands on exactly the state the
          sequential loop's *last* rebalance of that server produced.  That
          includes a batch that detaches every deflatable resident of a
          server: ``_rebalance`` zeroes ``reclaimed`` on an empty deflatable
          pool, whichever memberships came before.
        * The skipped intermediate rebalances could only have appended
          allocation-history rows at this same timestamp; the piecewise-
          constant allocation series reads the last row at or before each
          grid point (``searchsorted(..., side="right")``), so those rows
          were invisible to every metric, and ``_last_frac`` converges to
          the same final value either way.
        * In a failure-free run a departure can never flip a satisfiable
          server to unsatisfied: the required reclaim drops by the full
          departing capacity while the reclaimable pool drops by at most
          that, so no intermediate rebalance could have raised a
          ``reclaim_failure`` the final one misses.

        Collectors force one VM per call because their hooks observe the
        sequential intermediate states; the golden and randomized
        equivalence suites pin all of the above against the strictly
        per-event reference simulator, and
        ``tests/simulator/test_batched_ends.py`` pins the emptying batch
        directly in every replay mode.
        """
        placed, preempted, vm_server = self.vm_placed, self.vm_preempted, self.vm_server
        touched: dict[int, None] = {}
        for vm in vms:
            if not placed[vm] or preempted[vm]:
                continue
            server = int(vm_server[vm])
            self._detach(vm, server)
            for c in self._collectors:
                c.on_end(t, vm, server, self)
            touched[server] = None
        if self._policy is not None:
            for server in touched:
                self._rebalance(t, server)

    def _rebalance(self, t: float, server: int) -> None:
        """Recompute deflatable allocations on one server under its pressure."""
        assert self._policy is not None
        defl = self.resident_deflatable[server]
        if not defl:
            # Nothing left to deflate, so nothing is reclaimed.
            self.reclaimed[server] = 0.0
            self._dirty_rows.add(server)
            return
        com0, com1 = self.committed[server].tolist()
        cap0, cap1 = self.server_cap[server].tolist()
        required = (com0 - cap0, com1 - cap1)
        reclaimed = self.reclaimed
        rec0, rec1 = reclaimed[server].tolist()
        # Fast path: no pressure and nothing reclaimed.  The policy solves
        # would return all-zero reclaims with every resident at its last
        # recorded full allocation (the ``reclaimed == 0`` invariant implies
        # every resident's last recorded fraction is 1.0), so the whole
        # per-dimension evaluation is a no-op; only observers run.
        if required[0] <= 0.0 and required[1] <= 0.0 and rec0 == 0.0 and rec1 == 0.0:
            for c in self._collectors:
                c.on_rebalance(t, server, self)
            return
        cache = self._srv_cache[server]
        if cache is None:
            idx = list(defl)
            # One gather of every per-VM input, as Python float lists.
            caps0, caps1, pool0, pool1, prios, frac_denom = self._vm_block.take(
                idx, axis=1
            ).tolist()
            cache = (
                idx,
                ((caps0, pool0), (caps1, pool1)),
                prios,
                frac_denom,
                # Per-dimension reclaim plans, built lazily on first solve:
                # the plan hoists membership-dependent work (the priority
                # policy's water-fill) out of the rebalance storm, and its
                # lifetime is exactly the cache's — any membership change
                # drops both.  A plan answers every solve as the policy's
                # one-shot target_allocations would
                # (tests/core/test_policy_plans.py).
                [None] * _DIMS,
            )
            self._srv_cache[server] = cache
        idx, inputs, prios, frac_denom, plans = cache
        cpu_reclaim = None
        unsatisfied = False
        for r in range(_DIMS):
            req = required[r]
            if req <= 0.0:
                # The policy short-circuits required <= 0 into an all-zero,
                # satisfied reclaim; reclaim nothing without building a
                # plan (typically the memory dimension).
                reclaimed[server, r] = 0.0
                continue
            solve = plans[r]
            if solve is None:
                caps_r, pool_r = inputs[r]
                solve = plans[r] = self._policy.reclaim_plan(caps_r, pool_r, prios)
            reclaim, satisfied = solve(req)
            reclaimed[server, r] = _sequential_sum(reclaim)
            if r == 0:
                cpu_reclaim = reclaim
            if not satisfied:
                unsatisfied = True
        self._dirty_rows.add(server)
        if unsatisfied:
            # Should not happen (feasibility was checked at admission), but a
            # departure race could in principle expose it; count it.
            self.vm_reclaim_failure[idx] = True
        # Record CPU allocation fraction changes (one bulk append).
        if cpu_reclaim is None:
            cpu_reclaim = [0.0] * len(idx)
        last = self._last_frac
        sel, fsel = [], []
        for vm, x, denom in zip(idx, cpu_reclaim, frac_denom):
            f = 1.0 - x / denom
            if abs(f - last[vm]) > 1e-9:
                sel.append(vm)
                fsel.append(f)
                last[vm] = f
        if sel:
            self._append_history_bulk(sel, t, fsel)
        for c in self._collectors:
            c.on_rebalance(t, server, self)

    # -- preemption baseline ---------------------------------------------------------

    def _place_preemption(self, t: float, vm: int, candidates: np.ndarray) -> bool:
        if candidates is self._all_servers:
            free = self.server_cap - self.committed
        else:
            free = self.server_cap[candidates] - self.committed[candidates]
        fits = _both_dims(free >= self._vm_caps_eps[vm])
        n_fit = np.count_nonzero(fits)
        if n_fit:
            fit_idx = candidates if n_fit == fits.size else candidates[fits]
            self._admit(t, vm, self._choose_server(vm, fit_idx))
            return True
        if self.vm_deflatable[vm]:
            # Low-priority arrivals are not allowed to preempt others.
            return False
        # On-demand under pressure: preempt deflatable VMs, lowest priority
        # first, on the server needing the fewest preemptions.  Plans longer
        # than the best one found so far can never win (strictly-fewer
        # tie-breaking), so later servers abandon their scans early.
        d0, d1 = self._vm_cores_list[vm], self._vm_mem_list[vm]
        best_server, best_victims = -1, None
        limit = None
        for s in candidates.tolist():
            victims = self._plan_victims(s, d0, d1, limit)
            if victims is None:
                continue
            if best_victims is None or len(victims) < len(best_victims):
                best_server, best_victims = s, victims
                limit = len(best_victims)
        if best_victims is None:
            return False
        for victim in best_victims:
            self._preempt(t, victim)
        self._admit(t, vm, best_server)
        return True

    def _plan_victims(
        self, server: int, d0: float, d1: float, limit: int | None
    ) -> list[int] | None:
        """Scalar-math preemption planner.

        ``limit`` prunes plans that already match the caller's best length —
        they lose the strictly-fewer comparison regardless of how they end.
        """
        need0 = d0 - (self.server_cap[server, 0] - self.committed[server, 0])
        need1 = d1 - (self.server_cap[server, 1] - self.committed[server, 1])
        if need0 <= 1e-9 and need1 <= 1e-9:
            return []
        # Evicting every deflatable resident frees defl_cap, so servers far
        # short of the need can skip the victim scan.  The margin is kept
        # three orders looser than the scan's 1e-9 tolerance so float noise
        # between the incremental defl_cap sum and the scan's running sum
        # can never prune a server the scan would accept; gray-zone servers
        # fall through and the scan decides exactly.
        if self.defl_cap[server, 0] < need0 - 1e-6 or self.defl_cap[server, 1] < need1 - 1e-6:
            return None
        order = self._srv_victims[server]
        if order is None:
            prio = self._vm_prio_list
            order = sorted(self.resident_deflatable[server], key=lambda v: (prio[v], v))
            self._srv_victims[server] = order
        cores, mem = self._vm_cores_list, self._vm_mem_list
        victims: list[int] = []
        freed0 = freed1 = 0.0
        for v in order:
            if freed0 >= need0 - 1e-9 and freed1 >= need1 - 1e-9:
                break
            victims.append(v)
            if limit is not None and len(victims) >= limit:
                return None
            freed0 += cores[v]
            freed1 += mem[v]
        if freed0 >= need0 - 1e-9 and freed1 >= need1 - 1e-9:
            return victims
        return None

    def _preempt(self, t: float, vm: int) -> None:
        if self._preempt_log is not None:
            self._preempt_log.append(vm)
        self.vm_preempted[vm] = True
        server = int(self.vm_server[vm])
        self._detach(vm, server)
        self._append_history_one(vm, t, 0.0)
        self._last_frac[vm] = 0.0
        for c in self._collectors:
            c.on_preempt(t, vm, server, self)

    # -- allocation-history log --------------------------------------------------------

    def _hist_reserve(self, extra: int) -> None:
        need = self._hist_n + extra
        if need <= self._hist_vm.size:
            return
        size = max(need, 2 * self._hist_vm.size)
        for name in ("_hist_vm", "_hist_t", "_hist_f"):
            old = getattr(self, name)
            grown = np.empty(size, dtype=old.dtype)
            grown[: self._hist_n] = old[: self._hist_n]
            setattr(self, name, grown)

    def _append_history_one(self, vm: int, t: float, frac: float) -> None:
        self._hist_reserve(1)
        i = self._hist_n
        self._hist_vm[i] = vm
        self._hist_t[i] = t
        self._hist_f[i] = frac
        self._hist_n = i + 1
        self._hist_sorted = None

    def _append_history_bulk(self, vms: list[int], t: float, fracs: list[float]) -> None:
        k = len(vms)
        self._hist_reserve(k)
        i = self._hist_n
        self._hist_vm[i : i + k] = vms
        self._hist_t[i : i + k] = t
        self._hist_f[i : i + k] = fracs
        self._hist_n = i + k
        self._hist_sorted = None

    def _history_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The log grouped by VM (stable, so per-VM order stays event order)."""
        if self._hist_sorted is None:
            n = self._hist_n
            order = np.argsort(self._hist_vm[:n], kind="stable")
            self._hist_sorted = (
                self._hist_vm[:n][order],
                self._hist_t[:n][order],
                self._hist_f[:n][order],
            )
        return self._hist_sorted

    def _history_of(self, vm: int) -> tuple[np.ndarray, np.ndarray]:
        """(intervals, fractions) recorded for one VM, in event order."""
        svm, st, sf = self._history_arrays()
        lo = int(np.searchsorted(svm, vm, side="left"))
        hi = int(np.searchsorted(svm, vm, side="right"))
        return st[lo:hi], sf[lo:hi]

    def allocation_history(self, vm: int) -> list[tuple[float, float]]:
        """Piecewise-constant ``(interval, frac)`` history of one VM."""
        times, fracs = self._history_of(vm)
        return list(zip(times.tolist(), fracs.tolist()))

    # -- metrics -----------------------------------------------------------------------

    def _allocation_series(self, vm: int) -> np.ndarray:
        """Per-interval CPU allocation fraction over one VM's lifetime."""
        return self._allocation_block(np.array([vm]), int(self.vm_lifetime[vm]))[0]

    def _allocation_block(self, vms: np.ndarray, length: int) -> np.ndarray:
        """Allocation series of VMs ``vms``, each ``length`` intervals long.

        Row ``j`` holds, at every grid point ``g``, the fraction of the
        last history row of ``vms[j]`` with ``t - start <= g`` (1.0 before
        the first).  Every early end of a deflatable VM appends a
        ``(t, 0.0)`` history row, so the row reads 0.0 from ``t`` on.

        One ``searchsorted`` serves every row: a history row is keyed by
        its VM's position ``j`` and by ``ceil(t - start)`` (for an integer
        ``g``, ``t - start <= g`` exactly when ``ceil(t - start) <= g``),
        and grid point ``g`` of row ``j`` by ``(j, g)``.
        """
        svm, st, sf = self._history_arrays()
        lo = np.searchsorted(svm, vms, side="left")
        counts = np.searchsorted(svm, vms, side="right") - lo
        if not counts.any():
            return np.ones((vms.size, length))
        first = np.cumsum(counts) - counts  # each VM's first row in `rows`
        owner = np.repeat(np.arange(vms.size), counts)
        rows = np.repeat(lo - first, counts) + np.arange(owner.size)
        rel = st[rows] - self.vm_start[vms][owner]
        width = length + 2  # key offsets 0 ..= length + 1 within one VM
        keys = owner * width + np.clip(np.ceil(rel), -1, length).astype(np.int64) + 1
        grid = (np.arange(vms.size) * width)[:, None] + np.arange(1, length + 1)
        pos = np.searchsorted(keys, grid, side="right") - 1
        return np.where(pos >= first[:, None], sf[rows][np.maximum(pos, 0)], 1.0)

    def _vm_terms(self, vms: np.ndarray) -> tuple[np.ndarray, ...]:
        """Metric terms of placed deflatable VMs ``vms``, one array each.

        ``(demanded, lost, deflation, alloc_integral)``, in
        ``_TERM_NAMES`` order.  The VMs of one lifetime ``L`` stack their
        utilisation and allocation series into ``(k, L)`` blocks, at most
        ``_TERMS_BLOCK`` entries at a time; a C-contiguous row sum adds in
        the order of the 1-D ``.sum()`` of one series, so every term has
        the bits a per-VM computation gives.  A VM never preempted whose
        history is just its admission entry has an allocation series of
        all ones: its lost work and deflation are exactly 0.0 and its
        allocation integral is its lifetime, with no series built.
        :meth:`_metric_terms` and streaming compaction both call this, so
        finalizing a VM early yields the floats collecting it would.
        """
        k = vms.size
        demanded, alloc_integral = np.empty(k), np.empty(k)
        lost, deflation = np.zeros(k), np.zeros(k)
        svm, _, _ = self._history_arrays()
        hist_len = np.searchsorted(svm, vms, side="right") - np.searchsorted(svm, vms, side="left")
        deep = self.vm_preempted[vms] | (hist_len > 1)
        cores = self.vm_caps[vms, 0]
        lifetimes = self.vm_lifetime[vms]
        order = np.argsort(lifetimes, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(lifetimes[order])) + 1):
            if not group.size:
                continue
            length = int(lifetimes[group[0]])
            step = max(1, _TERMS_BLOCK // max(length, 1))
            for start in range(0, group.size, step):
                rows = group[start : start + step]
                util = self.traces.block(vms[rows], length)
                demanded[rows] = util.sum(axis=1) * cores[rows]
                alloc_integral[rows] = float(length)
                sub = deep[rows]
                if not sub.any():
                    continue
                rows = rows[sub]
                alloc = self._allocation_block(vms[rows], length)
                lost[rows] = np.maximum(util[sub] - alloc, 0.0).sum(axis=1) * cores[rows]
                deflation[rows] = (1.0 - alloc).sum(axis=1) * cores[rows]
                alloc_integral[rows] = alloc.sum(axis=1)
        return demanded, lost, deflation, alloc_integral

    def _metric_terms(self) -> "VMMetricTerms":
        """Per-VM metric terms over the deflatable placed population.

        The terms are pure per-VM quantities (no cross-VM accumulation), so
        they can be computed shard-locally and re-reduced in global VM order
        by the sharded engine; :func:`reduce_vm_terms` performs the exact
        reductions :meth:`_collect` applies to them.
        """
        sel = np.nonzero(self.vm_deflatable & self.vm_placed)[0]
        final = self._final_terms
        if final is None:
            columns = self._vm_terms(sel)
        else:
            # VMs finalized during streaming compaction (their history rows
            # are gone) serve the cached terms back verbatim.
            done = final["mask"][sel]
            columns = []
            for name, values in zip(_TERM_NAMES, self._vm_terms(sel[~done])):
                column = final[name][sel]
                column[~done] = values
                columns.append(column)
        demanded_t, lost_t, deflation_t, alloc_integral = columns
        # Bill at the priority snapshotted at construction, exactly as the
        # reference does — post-build surgery on vm_prio affects deflation
        # decisions, not the agreed price.
        return VMMetricTerms(
            sel=sel,
            demanded=demanded_t,
            lost=lost_t,
            deflation=deflation_t,
            alloc_integral=alloc_integral,
            cores=self.vm_caps[sel, 0],
            lifetimes=self.vm_lifetime[sel].astype(np.float64),
            priorities=self.vm_bill_prio[sel],
        )

    def _collect(self) -> ClusterSimResult:
        metrics = result_metrics(reduce_vm_terms(self._metric_terms()), self.config.n_servers)
        collected = {c.name: c.finalize(self) for c in self._collectors}
        total_capacity = float(self.server_cap[:, 0].sum())
        if self._injector is not None:
            # The injector's aggregate revocation/dip metrics ride along
            # with the collector payloads (plain scalars, cache-friendly).
            collected["failure-injection"] = self._injector.summary()
            # Revoked/dipped servers have mutated server_cap rows; report
            # the nominal provisioned capacity, not what survived.
            total_capacity = self._injector.nominal_total_cores()

        return ClusterSimResult(
            config=self.config,
            n_vms=len(self.traces),
            n_deflatable=int(self.vm_deflatable.sum()),
            n_placed=int(self.vm_placed.sum()),
            n_rejected_deflatable=int((self.vm_rejected & self.vm_deflatable).sum()),
            n_rejected_on_demand=int((self.vm_rejected & ~self.vm_deflatable).sum()),
            n_preempted=int((self.vm_preempted & self.vm_deflatable).sum()),
            n_reclaim_failures=int(
                (self.vm_reclaim_failure & ~self.vm_rejected).sum()
            ),
            peak_committed_cores=self._peak_committed,
            total_capacity_cores=total_capacity,
            collected=collected,
            **metrics,
        )


def servers_for_overcommitment(
    traces: VMTraceSet,
    overcommitment: float,
    cores_per_server: float = 48.0,
) -> int:
    """Server count placing the cluster at a target peak overcommitment.

    The paper's methodology: find the minimum cluster that fits the peak
    committed load (overcommitment 0), then shrink it.  Peak committed load
    is computed directly from the trace (all VMs placed).
    """
    if not 0 <= overcommitment < math.inf:
        raise SimulationError(
            f"overcommitment must be a finite number >= 0, got {overcommitment!r}"
        )
    _check_server_shape("cores_per_server", cores_per_server)
    # Integer core counts: the float sums are exact in any order.
    size = traces.horizon() + 1
    ends = traces.start_interval + traces.lifetimes
    load = np.bincount(traces.start_interval, weights=traces.cores, minlength=size)
    load -= np.bincount(ends, weights=traces.cores, minlength=size)
    peak = float(np.cumsum(load).max())
    n = math.ceil(peak / (cores_per_server * (1.0 + overcommitment)))
    return max(1, n)
