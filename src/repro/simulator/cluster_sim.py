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

* events are sorted once as a structured NumPy array instead of a Python
  tuple list with a lambda key;
* the cluster's committed CPU is maintained as an incrementally updated
  scalar, so peak tracking no longer scans ``committed[:, 0]`` per start
  event (exact, since core counts are integers);
* candidate-server index arrays are precomputed per pool instead of being
  rebuilt with ``np.arange``/``np.nonzero`` on every event;
* ``_rebalance`` skips the per-dimension policy solves entirely when a
  server has no pressure and nothing reclaimed (the dominant case below
  full subscription), and caches the per-server resident index/capacity
  gathers between membership changes instead of ``np.fromiter`` per call;
* per-VM allocation histories live in growable flat arrays (one bulk append
  per rebalance) rather than per-VM tuple lists, and ``_collect`` is
  vectorized: never-deflated VMs take closed-form fast paths, and all
  pricing models are evaluated over the whole VM population with array ops
  (order-preserving ``cumsum`` reductions keep float accumulation
  bit-identical to the original per-VM loop);
* ``_rebalance`` solves through per-server :meth:`DeflationPolicy.
  reclaim_plan` objects cached alongside the resident gathers, so the
  priority policy's breakpoint sort is paid once per membership change,
  not once per solve;
* whenever no collector and no injector is attached, the driver
  coalesces each timestamp's run of departures into one rebalance per
  touched server — in every replay mode, one-shot, stepped, resumed, and
  sharded alike (``_handle_end_batch`` documents the equivalence
  argument; observed and failure-injected replays stay strictly
  per-event).
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
    DeflationAwareAdmission,
    MetricsCollector,
    PlacementScorer,
)
from repro.traces.schema import VMTraceRecord, VMTraceSet

#: Resource dimensions used for bin-packing and deflation (paper: "We
#: consider each VM's CPU core count and memory size").
_DIMS = 2  # 0 = cpu cores, 1 = memory MB


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
class VMOutcome:
    """Per-VM bookkeeping for the metrics.

    The piecewise-constant allocation history formerly stored here as a
    tuple list now lives in the simulator's flat history arrays; fetch it
    with :meth:`ClusterSimulator.allocation_history`.
    """

    vm_index: int
    deflatable: bool
    priority: float
    cores: float
    placed: bool = False
    rejected: bool = False
    preempted: bool = False
    reclaim_failure: bool = False
    end_interval: float = 0.0  # actual end (may be early if preempted)


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
    priorities: np.ndarray  # admission-time priority snapshot


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
    vm_prio = np.ones(n)
    vm_deflatable = np.zeros(n, dtype=bool)
    for i, rec in enumerate(traces):
        vm_caps[i, 0] = rec.cores
        vm_caps[i, 1] = rec.memory_mb
        if rec.vm_class == VMClass.INTERACTIVE:
            vm_deflatable[i] = True
            vm_prio[i] = priority_from_p95(rec.p95_cpu)
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
        # Exact type check: a subclass may override feasible(), and the
        # no-deflation admission shortcut is only provably equivalent for
        # the stock rule.
        self._stock_admission = type(self._admission) is DeflationAwareAdmission
        self._prepare_vms()
        self._prepare_servers()

    # -- setup ---------------------------------------------------------------------

    def _prepare_vms(self) -> None:
        n = len(self.traces)
        self.vm_caps, self.vm_prio, self.vm_deflatable = vm_class_arrays(self.traces)
        #: Hosting server per VM (-1 = not placed).
        self.vm_server = np.full(n, -1, dtype=np.int64)
        # Outcome flags mirrored as arrays so _collect can count and slice
        # the population without a Python loop over VMOutcome objects.
        self.vm_placed = np.zeros(n, dtype=bool)
        self.vm_rejected = np.zeros(n, dtype=bool)
        self.vm_preempted = np.zeros(n, dtype=bool)
        self.vm_reclaim_failure = np.zeros(n, dtype=bool)
        self.vm_start = np.zeros(n, dtype=np.int64)
        self.vm_end = np.zeros(n, dtype=np.int64)
        self.vm_lifetime = np.zeros(n, dtype=np.int64)
        self.outcomes: list[VMOutcome] = []
        for i, rec in enumerate(self.traces):
            self.vm_start[i] = rec.start_interval
            self.vm_end[i] = rec.end_interval
            self.vm_lifetime[i] = rec.lifetime_intervals
            self.outcomes.append(
                VMOutcome(
                    vm_index=i,
                    deflatable=bool(self.vm_deflatable[i]),
                    priority=float(self.vm_prio[i]),
                    cores=float(rec.cores),
                    end_interval=float(rec.end_interval),
                )
            )
        # Policy floors: priority/deterministic deflate only to pi*M; every
        # policy additionally respects the configured QoS minimum fraction.
        base_floor = self.vm_caps * self.config.min_fraction
        if self.config.policy in ("priority", "deterministic"):
            self.vm_floor = np.maximum(base_floor, self.vm_caps * self.vm_prio[:, None])
        else:
            self.vm_floor = base_floor
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
        self._last_frac = np.ones(n)

    def _prepare_servers(self) -> None:
        cfg = self.config
        s = cfg.n_servers
        self.server_cap = np.tile(
            np.array([cfg.cores_per_server, cfg.memory_per_server_mb]), (s, 1)
        )
        self.committed = np.zeros((s, _DIMS))
        self.reclaimed = np.zeros((s, _DIMS))  # from deflatable VMs
        self.defl_cap = np.zeros((s, _DIMS))  # sum of deflatable capacities
        self.defl_floor = np.zeros((s, _DIMS))  # sum of policy floors
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
        #: Constant per-event operands, hoisted out of the loop.
        self._cap_eps = self.server_cap + 1e-9
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

        Called at construction *and* when the replay's stream opens: the blessed
        ``engine.build()`` flow mutates ``vm_prio`` / ``vm_floor`` /
        ``vm_caps`` on the built simulator before replaying (e.g. the
        priority-level ablation), and these snapshots must reflect that
        surgery exactly like the reference's live per-event reads did.
        """
        # Scalar-friendly copies for the preemption inner loops (plain
        # Python floats: the victim scan adds two numbers per resident and
        # NumPy scalar overhead dominated it).
        self._vm_cores_list = self.vm_caps[:, 0].tolist()
        self._vm_mem_list = self.vm_caps[:, 1].tolist()
        self._vm_prio_list = self.vm_prio.tolist()
        #: Normalized demand rows for _choose_server.
        self._demand_norm = self.vm_caps / self.server_cap[0]
        self._vm_caps_eps = self.vm_caps - 1e-9
        if self.config.partitioned:
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
        reach the same ``_handle_start`` / ``_handle_end`` handlers.  The
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
        self.server_cap[server] = 0.0
        self._cap_eps[server] = 1e-9

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
        self.server_cap = np.vstack([self.server_cap, row])
        self._cap_eps = np.vstack([self._cap_eps, row + 1e-9])
        zero = np.zeros((1, _DIMS))
        self.committed = np.vstack([self.committed, zero])
        self.reclaimed = np.vstack([self.reclaimed, zero])
        self.defl_cap = np.vstack([self.defl_cap, zero])
        self.defl_floor = np.vstack([self.defl_floor, zero])
        self.residents.append({})
        self.resident_deflatable.append({})
        self._srv_cache.append(None)
        self._srv_victims.append(None)
        self._all_servers = np.arange(n + 1)
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
        calls.  Returned as plain-list columns plus the ``cursor`` (next
        event) and the ``at`` boundary, which is the whole resumable state
        of the VM side of a replay.
        """
        n = len(self.traces)
        events = np.empty(
            2 * n, dtype=[("t", np.float64), ("kind", np.int8), ("vm", np.int64)]
        )
        events["t"][:n] = self.vm_end
        events["kind"][:n] = _END
        events["vm"][:n] = np.arange(n)
        events["t"][n:] = self.vm_start
        events["kind"][n:] = _START
        events["vm"][n:] = np.arange(n)
        events.sort(order=("t", "kind", "vm"))
        return {
            "t": events["t"].tolist(),
            "kind": events["kind"].tolist(),
            "vm": events["vm"].tolist(),
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
        handle_start, handle_end = self._handle_start, self._handle_end
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
                if kind == _END:
                    if batch_ends:
                        j = i + 1
                        while j < n and kind_list[j] == _END and t_list[j] == t:
                            j += 1
                        if j - i > 1:
                            self._handle_end_batch(t, vm_list[i:j])
                            if on_step is not None:
                                on_step(t, _END, vm_list[i])
                            i = j
                            continue
                    handle_end(t, vm_list[i])
                else:
                    handle_start(t, vm_list[i])
                if on_step is not None:
                    on_step(t, kind, vm_list[i])
                i += 1
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

    def _terms_for_vm(self, i: int) -> tuple[float, float, float, float]:
        """One VM's ``(demanded, lost, deflation, alloc_integral)`` terms.

        The same arithmetic :meth:`_metric_terms` applies, including its
        never-deflated fast path, so finalizing a VM early (streaming
        compaction) yields bit-identical floats to computing it at collect
        time.
        """
        rec = self.traces.records[i]
        cores = float(self.vm_caps[i, 0])
        demanded = float(rec.cpu_util.sum()) * cores
        times, _ = self._history_of(i)
        if not self.vm_preempted[i] and times.size <= 1:
            return demanded, 0.0, 0.0, float(rec.lifetime_intervals)
        alloc = self._allocation_series(rec, self.outcomes[i])
        lost = float(np.maximum(rec.cpu_util - alloc, 0.0).sum()) * cores
        deflation = float((1.0 - alloc).sum()) * cores
        return demanded, lost, deflation, float(alloc.sum())

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
        for i in newly.tolist():
            if pending and i in pending:
                continue  # a restart is still in flight; finalize later
            d, lost, defl, alloc = self._terms_for_vm(i)
            final["mask"][i] = True
            final["demanded"][i] = d
            final["lost"][i] = lost
            final["deflation"][i] = defl
            final["alloc_integral"][i] = alloc
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
            self._reject(t, vm, self.outcomes[vm])

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
        # to deflation-requiring servers.  Under the stock deflation-aware
        # rule a no-deflation server is always feasible (its overflow is
        # <= 0 and reclaimable pools are never negative), so when any exist
        # the admission controller does not need to run at all.
        whole_cluster = candidates is self._all_servers
        if self._stock_admission:
            if whole_cluster:  # gather-free: candidates are rows 0..s-1
                no_deflation = (self.committed + demand <= self._cap_eps).all(axis=1)
            else:
                no_deflation = (
                    self.committed[candidates] + demand <= self._cap_eps[candidates]
                ).all(axis=1)
            if no_deflation.all():
                pool_idx = candidates
            elif no_deflation.any():
                pool_idx = candidates[no_deflation]
            else:
                pool_idx = self._admission.feasible(self, vm, candidates)
                if self._server_alive is not None and pool_idx.size:
                    pool_idx = pool_idx[self._server_alive[pool_idx]]
                if pool_idx.size == 0:
                    return False
        else:
            feas_idx = self._admission.feasible(self, vm, candidates)
            if self._server_alive is not None and feas_idx.size:
                feas_idx = feas_idx[self._server_alive[feas_idx]]
            if feas_idx.size == 0:
                return False
            no_deflation = (
                self.committed[feas_idx] + demand <= self._cap_eps[feas_idx]
            ).all(axis=1)
            pool_idx = feas_idx[no_deflation] if no_deflation.any() else feas_idx

        if pool_idx.size == 1:
            # argmax over one candidate is that candidate; skip the scoring.
            server = int(pool_idx[0])
        else:
            # Availability (Section 5.2): free + deflatable/overcommitment.
            if pool_idx is self._all_servers:
                com, recl = self.committed, self.reclaimed
                dcap, dfloor, scap = self.defl_cap, self.defl_floor, self.server_cap
            else:
                com, recl = self.committed[pool_idx], self.reclaimed[pool_idx]
                dcap, dfloor = self.defl_cap[pool_idx], self.defl_floor[pool_idx]
                scap = self.server_cap[pool_idx]
            used = com - recl
            free = np.maximum(scap - used, 0.0)
            headroom = np.maximum((dcap - recl) - dfloor, 0.0)
            oc = np.maximum(com / scap, 1.0)
            availability = free + headroom / oc
            server = self._choose_server(vm, pool_idx, availability, scap)

        self._admit(t, vm, server)
        self._rebalance(t, server)
        return True

    def _choose_server(
        self,
        vm: int,
        pool_idx: np.ndarray,
        availability: np.ndarray,
        cap_rows: np.ndarray | None = None,
    ) -> int:
        """Rank candidate servers with the configured scorer; argmax wins.

        Both vectors are normalized into capacity fractions so scorers
        compare shapes, not raw units (memory MB would dwarf CPU cores).
        ``cap_rows`` carries ``server_cap[pool_idx]`` when the caller already
        gathered it.
        """
        if cap_rows is None:
            cap_rows = self.server_cap[pool_idx]
        avail_norm = availability / cap_rows
        scores = self._scorer.score(self._demand_norm[vm], avail_norm)
        return int(pool_idx[int(np.argmax(scores))])

    def _admit(self, t: float, vm: int, server: int) -> None:
        out = self.outcomes[vm]
        out.placed = True
        self.vm_placed[vm] = True
        self.committed[server] += self.vm_caps[vm]
        self._committed_cores += float(self.vm_caps[vm, 0])
        if self._committed_cores > self._peak_committed:
            self._peak_committed = self._committed_cores
        self.residents[server][vm] = None
        self.vm_server[vm] = server
        if self.vm_deflatable[vm]:
            self.resident_deflatable[server][vm] = None
            self.defl_cap[server] += self.vm_caps[vm]
            self.defl_floor[server] += self.vm_floor[vm]
            self._srv_cache[server] = None
            self._srv_victims[server] = None
            self._append_history_one(vm, t, 1.0)
            self._last_frac[vm] = 1.0
        for c in self._collectors:
            c.on_admit(t, vm, server, self)

    def _reject(self, t: float, vm: int, out: VMOutcome) -> None:
        out.rejected = True
        self.vm_rejected[vm] = True
        for c in self._collectors:
            c.on_reject(t, vm, self)

    def _detach(self, vm: int, server: int) -> None:
        """Remove a VM from a server's bookkeeping (no outcome changes).

        Shared by normal departures, preemptions, and failure-injected
        evacuations/kills; the caller decides what the removal *means*.
        """
        self.committed[server] -= self.vm_caps[vm]
        self._committed_cores -= float(self.vm_caps[vm, 0])
        del self.residents[server][vm]
        if self.vm_deflatable[vm]:
            del self.resident_deflatable[server][vm]
            self.defl_cap[server] -= self.vm_caps[vm]
            self.defl_floor[server] -= self.vm_floor[vm]
            self._srv_cache[server] = None
            self._srv_victims[server] = None

    def _reattach(self, vm: int, server: int) -> None:
        """Exact inverse of :meth:`_detach` (no collectors, no history).

        Used by the failure injector when a budgeted drain migration finds
        no destination: the VM never left the (still-running) source, so
        its bookkeeping is restored verbatim and the evacuation retries at
        the next tick.
        """
        self.committed[server] += self.vm_caps[vm]
        self._committed_cores += float(self.vm_caps[vm, 0])
        self.residents[server][vm] = None
        if self.vm_deflatable[vm]:
            self.resident_deflatable[server][vm] = None
            self.defl_cap[server] += self.vm_caps[vm]
            self.defl_floor[server] += self.vm_floor[vm]
            self._srv_cache[server] = None
            self._srv_victims[server] = None

    def _handle_end(self, t: float, vm: int) -> None:
        out = self.outcomes[vm]
        if not out.placed or out.preempted:
            return
        server = int(self.vm_server[vm])
        self._detach(vm, server)
        for c in self._collectors:
            c.on_end(t, vm, server, self)
        if self._policy is not None:
            self._rebalance(t, server)

    def _handle_end_batch(self, t: float, vms: list) -> None:
        """One timestamp's departures with a single rebalance per server.

        The driver (:meth:`_replay`) calls this in every replay mode —
        one-shot, stepped, snapshot-resumed, and sharded — whenever no
        collector and no injector is attached; observed and
        failure-injected replays stay strictly per-event.  A ``run_until``
        boundary never splits a batch: it cuts by time, and a batch shares
        one timestamp.  Equivalence with the sequential loop, in full:

        * Detaches are independent per-VM bookkeeping, applied in the same
          event order, so the post-batch membership and committed totals are
          identical.
        * Rebalance recomputes targets from capacities and the server's
          *current* pressure (recompute-from-capacity semantics), so one
          rebalance over the final membership lands on exactly the state the
          sequential loop's *last* rebalance of that server produced —
          **provided that final rebalance runs at all**.  The one exception
          is a batch that detaches *every* deflatable resident of a server:
          ``_rebalance`` early-returns on an empty deflatable set without
          touching ``self.reclaimed[server]``, so in the sequential loop the
          residue left behind comes from the last rebalance that still saw a
          deflatable resident — an *intermediate* membership this batch
          never visits.  That residue feeds the availability score of later
          placements (``used = committed - reclaimed``), so the whole
          timestamp falls back to strict per-event processing whenever a
          touched server's deflatable population would be emptied.
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

        Collectors force the per-event path because their hooks observe the
        sequential intermediate states; the golden and randomized
        equivalence suites pin all of the above against the strictly
        per-event reference simulator, and
        ``tests/simulator/test_batched_ends.py`` pins the emptied-server
        residue case directly in every replay mode.
        """
        outcomes = self.outcomes
        vm_server = self.vm_server
        departing: list[tuple[int, int]] = []
        defl_departing: dict[int, int] = {}
        for vm in vms:
            out = outcomes[vm]
            if not out.placed or out.preempted:
                continue
            server = int(vm_server[vm])
            departing.append((vm, server))
            if self.vm_deflatable[vm]:
                defl_departing[server] = defl_departing.get(server, 0) + 1
        if self._policy is not None and any(
            n == len(self.resident_deflatable[s]) for s, n in defl_departing.items()
        ):
            # A server's deflatable population empties this timestamp: its
            # reclaimed residue depends on intermediate memberships (see
            # docstring), so replay the batch exactly as the sequential
            # loop would.  Rare, and correctness beats the batching win.
            for vm, server in departing:
                self._detach(vm, server)
                self._rebalance(t, server)
            return
        touched: dict[int, None] = {}
        for vm, server in departing:
            self._detach(vm, server)
            touched[server] = None
        if self._policy is not None:
            for server in touched:
                self._rebalance(t, server)

    def _rebalance(self, t: float, server: int) -> None:
        """Recompute deflatable allocations on one server under its pressure."""
        assert self._policy is not None
        defl = self.resident_deflatable[server]
        if not defl:
            return
        committed = self.committed[server]
        r0 = committed[0] - self.server_cap[server, 0]
        r1 = committed[1] - self.server_cap[server, 1]
        # Fast path: no pressure and nothing reclaimed.  The policy solves
        # would return all-zero reclaims with every resident at its last
        # recorded full allocation (the ``reclaimed == 0`` invariant implies
        # every resident's last recorded fraction is 1.0), so the whole
        # per-dimension evaluation is a no-op; only observers run.
        if (
            r0 <= 0.0
            and r1 <= 0.0
            and self.reclaimed[server, 0] == 0.0
            and self.reclaimed[server, 1] == 0.0
        ):
            for c in self._collectors:
                c.on_rebalance(t, server, self)
            return
        required = (r0, r1)
        cache = self._srv_cache[server]
        if cache is None:
            idx = np.fromiter(defl, dtype=np.int64, count=len(defl))
            caps = self.vm_caps[idx]
            cache = (
                idx,
                # Contiguous per-dimension columns for the policy solves.
                (caps[:, 0].copy(), caps[:, 1].copy()),
                (self.vm_floor[idx, 0], self.vm_floor[idx, 1]),
                self.vm_prio[idx],
                np.maximum(caps[:, 0], 1e-12),  # frac denominator
                # Per-dimension reclaim plans, built lazily on first solve:
                # the plan hoists membership-dependent work (the priority
                # policy's breakpoint sort) out of the rebalance storm, and
                # its lifetime is exactly the cache's — any membership change
                # drops both.  Results are bit-identical to the one-shot
                # trusted entry (tests/core/test_deflation_trusted.py).
                [None] * _DIMS,
            )
            self._srv_cache[server] = cache
        idx, caps_dim, floors_dim, prios, frac_denom, plans = cache
        new_reclaimed = np.zeros((idx.size, _DIMS))
        unsatisfied = False
        for r in range(_DIMS):
            req = float(required[r])
            if req <= 0.0:
                # The policy short-circuits required <= 0 into an all-zero,
                # satisfied reclaim; keep the zero rows without paying its
                # input validation (typically the memory dimension).
                continue
            solve = plans[r]
            if solve is None:
                solve = plans[r] = self._policy.reclaim_plan(
                    caps_dim[r], floors_dim[r], prios
                )
            result = solve(req)
            new_reclaimed[:, r] = result.reclaimed
            if not result.satisfied:
                unsatisfied = True
        self.reclaimed[server] = new_reclaimed.sum(axis=0)
        if unsatisfied:
            # Should not happen (feasibility was checked at admission), but a
            # departure race could in principle expose it; count it.
            self.vm_reclaim_failure[idx] = True
            for j in idx:
                self.outcomes[int(j)].reclaim_failure = True
        # Record CPU allocation fraction changes (bulk append).
        frac = 1.0 - new_reclaimed[:, 0] / frac_denom
        changed = np.abs(frac - self._last_frac[idx]) > 1e-9
        if changed.any():
            sel = idx[changed]
            fsel = frac[changed]
            self._append_history_bulk(sel, t, fsel)
            self._last_frac[sel] = fsel
        for c in self._collectors:
            c.on_rebalance(t, server, self)

    # -- preemption baseline ---------------------------------------------------------

    def _place_preemption(self, t: float, vm: int, candidates: np.ndarray) -> bool:
        demand = self.vm_caps[vm]
        if candidates is self._all_servers:
            free = self.server_cap - self.committed
        else:
            free = self.server_cap[candidates] - self.committed[candidates]
        fits = (free >= self._vm_caps_eps[vm]).all(axis=1)
        fit_idx = candidates[fits]
        if fit_idx.size > 0:
            self._admit(t, vm, self._choose_server(vm, fit_idx, np.maximum(free[fits], 0.0)))
            return True
        if self.vm_deflatable[vm]:
            # Low-priority arrivals are not allowed to preempt others.
            return False
        # On-demand under pressure: preempt deflatable VMs, lowest priority
        # first, on the server needing the fewest preemptions.  Plans longer
        # than the best one found so far can never win (strictly-fewer
        # tie-breaking), so later servers abandon their scans early.
        d0, d1 = float(demand[0]), float(demand[1])
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

    def _preemption_plan(self, server: int, demand: np.ndarray) -> list[int] | None:
        """Victims (ascending priority) freeing enough room, or None."""
        return self._plan_victims(server, float(demand[0]), float(demand[1]), None)

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
        out = self.outcomes[vm]
        out.preempted = True
        self.vm_preempted[vm] = True
        out.end_interval = t
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

    def _append_history_bulk(self, vms: np.ndarray, t: float, fracs: np.ndarray) -> None:
        k = vms.size
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

    def _allocation_series(self, rec: VMTraceRecord, out: VMOutcome) -> np.ndarray:
        """Per-interval CPU allocation fraction over the VM's lifetime."""
        n = rec.lifetime_intervals
        if out.preempted:
            n = max(0, min(n, int(math.ceil(out.end_interval - rec.start_interval))))
        alloc = np.ones(rec.lifetime_intervals)
        times, fracs = self._history_of(out.vm_index)
        if times.size == 0:
            return alloc
        times = times - rec.start_interval
        grid = np.arange(rec.lifetime_intervals, dtype=np.float64)
        pos = np.searchsorted(times, grid, side="right") - 1
        alloc = np.where(pos >= 0, fracs[np.clip(pos, 0, len(fracs) - 1)], 1.0)
        if out.preempted:
            alloc[n:] = 0.0
        return alloc

    def _metric_terms(self) -> "VMMetricTerms":
        """Per-VM metric terms over the deflatable placed population.

        The terms are pure per-VM quantities (no cross-VM accumulation), so
        they can be computed shard-locally and re-reduced in global VM order
        by the sharded engine; :func:`reduce_vm_terms` performs the exact
        reductions :meth:`_collect` applies to them.
        """
        records = self.traces.records
        sel = np.nonzero(self.vm_deflatable & self.vm_placed)[0]

        # Per-VM metric terms, later reduced with cumsum (sequential, so the
        # float accumulation order matches the original per-VM `+=` loop).
        demanded_t = np.zeros(sel.size)
        lost_t = np.zeros(sel.size)
        deflation_t = np.zeros(sel.size)
        alloc_integral = np.zeros(sel.size)
        cores_sel = self.vm_caps[sel, 0] if sel.size else np.zeros(0)
        lifetime_sel = self.vm_lifetime[sel].astype(np.float64)

        # A VM whose history is just its admission entry (fraction 1.0) was
        # never deflated nor preempted: its allocation series is identically
        # 1.0, so lost work and deflation are exactly 0.0 and the allocation
        # integral is exactly its lifetime — no series reconstruction needed.
        if sel.size:
            svm, _, _ = self._history_arrays()
            hist_len = np.searchsorted(svm, sel, side="right") - np.searchsorted(
                svm, sel, side="left"
            )
            trivial = ~self.vm_preempted[sel] & (hist_len <= 1)
        else:
            trivial = np.zeros(0, dtype=bool)

        final = self._final_terms
        for k, i in enumerate(sel.tolist()):
            if final is not None and final["mask"][i]:
                # Finalized during streaming compaction (its history rows
                # are gone); serve the cached terms back verbatim.
                demanded_t[k] = final["demanded"][i]
                lost_t[k] = final["lost"][i]
                deflation_t[k] = final["deflation"][i]
                alloc_integral[k] = final["alloc_integral"][i]
                continue
            rec = records[i]
            cores = float(cores_sel[k])
            u_sum = float(rec.cpu_util.sum())
            demanded_t[k] = u_sum * cores
            if trivial[k]:
                alloc_integral[k] = float(rec.lifetime_intervals)
                continue
            alloc = self._allocation_series(rec, self.outcomes[i])
            lost_t[k] = float(np.maximum(rec.cpu_util - alloc, 0.0).sum()) * cores
            deflation_t[k] = float((1.0 - alloc).sum()) * cores
            alloc_integral[k] = float(alloc.sum())

        # Bill at the admission-time priority snapshot (VMOutcome.priority),
        # exactly as the reference does — post-build surgery on vm_prio
        # affects deflation decisions, not the agreed price.
        prio_sel = np.array(
            [self.outcomes[i].priority for i in sel.tolist()], dtype=np.float64
        )
        return VMMetricTerms(
            sel=sel,
            demanded=demanded_t,
            lost=lost_t,
            deflation=deflation_t,
            alloc_integral=alloc_integral,
            cores=cores_sel,
            lifetimes=lifetime_sel,
            priorities=prio_sel,
        )

    def _collect(self) -> ClusterSimResult:
        terms = self._metric_terms()
        agg = reduce_vm_terms(terms)
        demanded_work = agg["demanded_work"]
        lost_work = agg["lost_work"]
        deflation_sum = agg["deflation_sum"]
        deflation_weight = agg["deflation_weight"]
        revenue = agg["revenue"]

        collected = {c.name: c.finalize(self) for c in self._collectors}
        total_capacity = float(self.server_cap[:, 0].sum())
        if self._injector is not None:
            # The injector's aggregate revocation/dip metrics ride along
            # with the collector payloads (plain scalars, cache-friendly).
            collected["failure-injection"] = self._injector.summary()
            # Revoked/dipped servers have mutated server_cap rows; report
            # the nominal provisioned capacity, not what survived.
            total_capacity = self._injector.nominal_total_cores()

        result = ClusterSimResult(
            config=self.config,
            n_vms=len(self.traces),
            n_deflatable=int(self.vm_deflatable.sum()),
            n_placed=int(self.vm_placed.sum()),
            n_rejected_deflatable=int((self.vm_rejected & self.vm_deflatable).sum()),
            n_rejected_on_demand=int((self.vm_rejected & ~self.vm_deflatable).sum()),
            n_preempted=int(self.vm_preempted.sum()),
            n_reclaim_failures=int(
                (self.vm_reclaim_failure & ~self.vm_rejected).sum()
            ),
            peak_committed_cores=self._peak_committed,
            total_capacity_cores=total_capacity,
            throughput_loss=(lost_work / demanded_work) if demanded_work > 0 else 0.0,
            mean_deflation=(deflation_sum / deflation_weight) if deflation_weight else 0.0,
            revenue=revenue,
            revenue_per_server={
                name: rev / self.config.n_servers for name, rev in revenue.items()
            },
            collected=collected,
        )
        return result


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
    if overcommitment < 0:
        raise SimulationError("overcommitment must be >= 0")
    horizon = traces.horizon()
    load = np.zeros(horizon + 1)
    for rec in traces:
        load[rec.start_interval] += rec.cores
        load[rec.end_interval] -= rec.cores
    peak = float(np.cumsum(load).max())
    n = math.ceil(peak / (cores_per_server * (1.0 + overcommitment)))
    return max(1, n)
