"""Pinned pre-optimization cluster simulator (golden reference).

This is a verbatim snapshot of :mod:`repro.simulator.cluster_sim` as it
stood *before* the fast-path rework (incremental committed-cores scalar,
cached candidate arrays, rebalance skip, vectorized ``_collect``), kept for
two purposes:

* the golden-equivalence test suite asserts the optimized simulator's
  :class:`~repro.simulator.cluster_sim.ClusterSimResult` is **bit-identical**
  to this implementation across every policy, flat and partitioned;
* ``benchmarks/bench_scale_cluster.py`` times this implementation as the
  baseline the optimized path is measured against.

It intentionally shares :class:`ClusterSimConfig` / :class:`ClusterSimResult`
with the optimized module (so results compare with plain ``==``) but keeps
its own per-VM ``VMOutcome`` with the old tuple-list ``alloc_history``.

Known deliberate divergence: the optimized simulator fixed the partition
trim loop (``_assign_partitions``), so when partitioning is enabled with
more pools than servers the two implementations assign different pools —
this snapshot preserves the old (buggy, lowest-index-starved) behaviour.
Golden comparisons therefore use ``n_servers >= n_pools``.

One deliberate behavioural edit since the snapshot: ``_rebalance`` zeroes
``reclaimed`` on a server whose last deflatable resident left, instead of
keeping the stale residue (docs/performance.md, "Deliberate behavioural
changes").

Do not optimize this module; it is the yardstick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.deflation import DeflationPolicy, get_policy
from repro.core.vm import VMClass, priority_from_p95
from repro.errors import SimulationError
from repro.pricing.models import PRICING_MODELS
from repro.registry import create
from repro.simulator.cluster_sim import ClusterSimConfig, ClusterSimResult
from repro.simulator.components import (
    AdmissionController,
    MetricsCollector,
    PlacementScorer,
)
from repro.traces.schema import VMTraceRecord, VMTraceSet

#: Resource dimensions used for bin-packing and deflation (paper: "We
#: consider each VM's CPU core count and memory size").
_DIMS = 2  # 0 = cpu cores, 1 = memory MB


@dataclass
class VMOutcome:
    """Per-VM bookkeeping for the metrics (pre-optimization shape)."""

    vm_index: int
    deflatable: bool
    priority: float
    cores: float
    placed: bool = False
    rejected: bool = False
    preempted: bool = False
    reclaim_failure: bool = False
    end_interval: float = 0.0  # actual end (may be early if preempted)
    #: Piecewise-constant CPU allocation fraction: list of (interval, frac).
    alloc_history: list[tuple[float, float]] = field(default_factory=list)


class ReferenceClusterSimulator:
    """The pre-optimization event loop, preserved exactly as it was."""

    def __init__(self, traces: VMTraceSet, config: ClusterSimConfig) -> None:
        if len(traces) == 0:
            raise SimulationError("empty trace set")
        self.traces = traces
        self.config = config
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
        self.vm_caps = np.zeros((n, _DIMS))
        self.vm_prio = np.ones(n)
        self.vm_deflatable = np.zeros(n, dtype=bool)
        #: Hosting server per VM (-1 = not placed).
        self.vm_server = np.full(n, -1, dtype=np.int64)
        self.outcomes: list[VMOutcome] = []
        for i, rec in enumerate(self.traces):
            self.vm_caps[i, 0] = rec.cores
            self.vm_caps[i, 1] = rec.memory_mb
            deflatable = rec.vm_class == VMClass.INTERACTIVE
            self.vm_deflatable[i] = deflatable
            self.vm_prio[i] = priority_from_p95(rec.p95_cpu) if deflatable else 1.0
            self.outcomes.append(
                VMOutcome(
                    vm_index=i,
                    deflatable=deflatable,
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
        # Partition assignment: deflatable pools 0..n_partitions-1 by
        # priority level, plus one on-demand pool.  Server shares follow the
        # paper's advice to size pools by the workload mix (we use committed
        # capacity shares of each class in the trace).
        self.server_pool = np.full(s, -1, dtype=np.int64)
        if cfg.partitioned:
            self._assign_partitions()

    def _assign_partitions(self) -> None:
        cfg = self.config
        levels = sorted(set(np.round(self.vm_prio[self.vm_deflatable], 6)))
        # Demand share per pool (deflatable levels + on-demand pool).
        shares = []
        for lvl in levels:
            mask = self.vm_deflatable & (np.abs(self.vm_prio - lvl) < 1e-6)
            shares.append(self.vm_caps[mask, 0].sum())
        shares.append(self.vm_caps[~self.vm_deflatable, 0].sum())
        shares = np.asarray(shares, dtype=np.float64)
        shares = shares / shares.sum() if shares.sum() > 0 else np.ones_like(shares) / len(shares)
        counts = np.maximum(1, np.round(shares * cfg.n_servers).astype(int))
        # Trim/extend to exactly n_servers.
        while counts.sum() > cfg.n_servers:
            counts[np.argmax(counts)] -= 1
        while counts.sum() < cfg.n_servers:
            counts[np.argmax(shares)] += 1
        pools = np.repeat(np.arange(len(counts)), counts)
        self.server_pool = pools[: cfg.n_servers]
        self._pool_of_level = {lvl: k for k, lvl in enumerate(levels)}
        self._on_demand_pool = len(levels)

    # -- main loop -----------------------------------------------------------------

    def run(self) -> ClusterSimResult:
        events: list[tuple[float, int, int, int]] = []
        for i, rec in enumerate(self.traces):
            # Ends sort before starts at the same interval (kind 0 < 1).
            events.append((float(rec.start_interval), 1, i, i))
            events.append((float(rec.end_interval), 0, i, i))
        events.sort(key=lambda e: (e[0], e[1], e[2]))

        peak_committed = 0.0
        for t, kind, _, vm in events:
            if kind == 0:
                self._handle_end(t, vm)
            else:
                self._handle_start(t, vm)
                peak_committed = max(peak_committed, float(self.committed[:, 0].sum()))
        return self._collect(peak_committed)

    # -- event handlers -----------------------------------------------------------

    def _candidate_servers(self, vm: int) -> np.ndarray:
        if not self.config.partitioned:
            return np.arange(self.config.n_servers)
        if self.vm_deflatable[vm]:
            lvl = float(np.round(self.vm_prio[vm], 6))
            pool = self._pool_of_level.get(lvl, 0)
        else:
            pool = self._on_demand_pool
        return np.nonzero(self.server_pool == pool)[0]

    def _handle_start(self, t: float, vm: int) -> None:
        out = self.outcomes[vm]
        demand = self.vm_caps[vm]
        candidates = self._candidate_servers(vm)
        if candidates.size == 0:
            self._reject(t, vm, out)
            return

        if self._policy is None:
            self._place_preemption(t, vm, candidates)
            return

        feas_idx = self._admission.feasible(self, vm, candidates)
        if feas_idx.size == 0:
            self._reject(t, vm, out)
            return

        # Prefer servers that can host the VM without deflating anyone —
        # "when there is surplus capacity in the cluster, the cloud manager
        # allocates these resources to lower priority VMs (without deflating
        # them)" (Section 5).  Only under genuine pressure do we fall back
        # to deflation-requiring servers.
        no_deflation = np.all(
            self.committed[feas_idx] + demand <= self.server_cap[feas_idx] + 1e-9,
            axis=1,
        )
        pool_idx = feas_idx[no_deflation] if np.any(no_deflation) else feas_idx

        # Availability vector (Section 5.2): free + deflatable/overcommitment.
        used = self.committed[pool_idx] - self.reclaimed[pool_idx]
        free = np.maximum(self.server_cap[pool_idx] - used, 0.0)
        headroom = np.maximum(
            (self.defl_cap[pool_idx] - self.reclaimed[pool_idx])
            - self.defl_floor[pool_idx],
            0.0,
        )
        oc = np.maximum(self.committed[pool_idx] / self.server_cap[pool_idx], 1.0)
        availability = free + headroom / oc
        server = self._choose_server(vm, pool_idx, availability)

        self._admit(t, vm, server)
        self._rebalance(t, server)

    def _choose_server(
        self, vm: int, pool_idx: np.ndarray, availability: np.ndarray
    ) -> int:
        """Rank candidate servers with the configured scorer; argmax wins.

        Both vectors are normalized into capacity fractions so scorers
        compare shapes, not raw units (memory MB would dwarf CPU cores).
        """
        avail_norm = availability / self.server_cap[pool_idx]
        demand_norm = self.vm_caps[vm] / self.server_cap[0]
        scores = self._scorer.score(demand_norm, avail_norm)
        return int(pool_idx[int(np.argmax(scores))])

    def _admit(self, t: float, vm: int, server: int) -> None:
        out = self.outcomes[vm]
        out.placed = True
        self.committed[server] += self.vm_caps[vm]
        self.residents[server][vm] = None
        self.vm_server[vm] = server
        if self.vm_deflatable[vm]:
            self.resident_deflatable[server][vm] = None
            self.defl_cap[server] += self.vm_caps[vm]
            self.defl_floor[server] += self.vm_floor[vm]
            out.alloc_history.append((t, 1.0))
        for c in self._collectors:
            c.on_admit(t, vm, server, self)

    def _reject(self, t: float, vm: int, out: VMOutcome) -> None:
        out.rejected = True
        for c in self._collectors:
            c.on_reject(t, vm, self)

    def _handle_end(self, t: float, vm: int) -> None:
        out = self.outcomes[vm]
        if not out.placed or out.preempted:
            return
        server = int(self.vm_server[vm])
        self.committed[server] -= self.vm_caps[vm]
        del self.residents[server][vm]
        if self.vm_deflatable[vm]:
            del self.resident_deflatable[server][vm]
            self.defl_cap[server] -= self.vm_caps[vm]
            self.defl_floor[server] -= self.vm_floor[vm]
        for c in self._collectors:
            c.on_end(t, vm, server, self)
        if self._policy is not None:
            self._rebalance(t, server)

    def _rebalance(self, t: float, server: int) -> None:
        """Recompute deflatable allocations on one server under its pressure."""
        assert self._policy is not None
        defl = self.resident_deflatable[server]
        required = self.committed[server] - self.server_cap[server]
        if not defl:
            self.reclaimed[server] = 0.0
            return
        idx = np.fromiter(defl, dtype=np.int64, count=len(defl))
        caps = self.vm_caps[idx]
        floors = self.vm_floor[idx]
        prios = self.vm_prio[idx]
        new_reclaimed = np.zeros((idx.size, _DIMS))
        unsatisfied = False
        for r in range(_DIMS):
            req = float(max(required[r], 0.0))
            result = self._policy.target_allocations(caps[:, r], floors[:, r], prios, req)
            new_reclaimed[:, r] = result.reclaimed
            if not result.satisfied:
                unsatisfied = True
        self.reclaimed[server] = new_reclaimed.sum(axis=0)
        if unsatisfied:
            # Should not happen (feasibility was checked at admission), but a
            # departure race could in principle expose it; count it.
            for j in idx:
                self.outcomes[int(j)].reclaim_failure = True
        # Record CPU allocation fraction changes.
        frac = 1.0 - new_reclaimed[:, 0] / np.maximum(caps[:, 0], 1e-12)
        for k, j in enumerate(idx):
            hist = self.outcomes[int(j)].alloc_history
            if not hist or abs(hist[-1][1] - frac[k]) > 1e-9:
                hist.append((t, float(frac[k])))
        for c in self._collectors:
            c.on_rebalance(t, server, self)

    # -- preemption baseline ---------------------------------------------------------

    def _place_preemption(self, t: float, vm: int, candidates: np.ndarray) -> None:
        out = self.outcomes[vm]
        demand = self.vm_caps[vm]
        free = self.server_cap[candidates] - self.committed[candidates]
        fits = np.all(free >= demand - 1e-9, axis=1)
        fit_idx = candidates[fits]
        if fit_idx.size > 0:
            self._admit(t, vm, self._choose_server(vm, fit_idx, np.maximum(free[fits], 0.0)))
            return
        if self.vm_deflatable[vm]:
            # Low-priority arrivals are not allowed to preempt others.
            self._reject(t, vm, out)
            return
        # On-demand under pressure: preempt deflatable VMs, lowest priority
        # first, on the server needing the fewest preemptions.
        best_server, best_victims = -1, None
        for s in candidates:
            victims = self._preemption_plan(int(s), demand)
            if victims is None:
                continue
            if best_victims is None or len(victims) < len(best_victims):
                best_server, best_victims = int(s), victims
        if best_victims is None:
            self._reject(t, vm, out)
            return
        for victim in best_victims:
            self._preempt(t, victim)
        self._admit(t, vm, best_server)

    def _preemption_plan(self, server: int, demand: np.ndarray) -> list[int] | None:
        """Victims (ascending priority) freeing enough room, or None."""
        free = self.server_cap[server] - self.committed[server]
        need = demand - free
        if np.all(need <= 1e-9):
            return []
        defl = sorted(
            self.resident_deflatable[server], key=lambda v: (self.vm_prio[v], v)
        )
        victims: list[int] = []
        freed = np.zeros(_DIMS)
        for v in defl:
            if np.all(freed >= need - 1e-9):
                break
            victims.append(v)
            freed += self.vm_caps[v]
        if np.all(freed >= need - 1e-9):
            return victims
        return None

    def _preempt(self, t: float, vm: int) -> None:
        out = self.outcomes[vm]
        out.preempted = True
        out.end_interval = t
        server = int(self.vm_server[vm])
        self.committed[server] -= self.vm_caps[vm]
        del self.residents[server][vm]
        del self.resident_deflatable[server][vm]
        self.defl_cap[server] -= self.vm_caps[vm]
        self.defl_floor[server] -= self.vm_floor[vm]
        out.alloc_history.append((t, 0.0))
        for c in self._collectors:
            c.on_preempt(t, vm, server, self)

    # -- metrics -----------------------------------------------------------------------

    def _allocation_series(self, rec: VMTraceRecord, out: VMOutcome) -> np.ndarray:
        """Per-interval CPU allocation fraction over the VM's lifetime."""
        n = rec.lifetime_intervals
        if out.preempted:
            n = max(0, min(n, int(math.ceil(out.end_interval - rec.start_interval))))
        alloc = np.ones(rec.lifetime_intervals)
        if not out.alloc_history:
            return alloc
        times = np.array([h[0] for h in out.alloc_history]) - rec.start_interval
        fracs = np.array([h[1] for h in out.alloc_history])
        grid = np.arange(rec.lifetime_intervals, dtype=np.float64)
        pos = np.searchsorted(times, grid, side="right") - 1
        alloc = np.where(pos >= 0, fracs[np.clip(pos, 0, len(fracs) - 1)], 1.0)
        if out.preempted:
            alloc[n:] = 0.0
        return alloc

    def _collect(self, peak_committed: float) -> ClusterSimResult:
        lost_work = 0.0
        demanded_work = 0.0
        deflation_sum = 0.0
        deflation_weight = 0.0
        revenue = {name: 0.0 for name in PRICING_MODELS}

        for rec, out in zip(self.traces, self.outcomes):
            if not out.deflatable:
                continue
            if not out.placed:
                continue  # rejected: no revenue, no work served or demanded
            alloc = self._allocation_series(rec, out)
            util = rec.cpu_util
            demanded = float(util.sum()) * out.cores
            lost = float(np.maximum(util - alloc, 0.0).sum()) * out.cores
            demanded_work += demanded
            lost_work += lost
            lifetime = rec.lifetime_intervals
            deflation_sum += float((1.0 - alloc).sum()) * out.cores
            deflation_weight += lifetime * out.cores
            alloc_integral = float(alloc.sum())  # in intervals
            for name, model in PRICING_MODELS.items():
                mean_alloc = alloc_integral / lifetime if lifetime else 1.0
                revenue[name] += model.revenue(
                    capacity_units=out.cores,
                    duration=float(lifetime),
                    priority=out.priority,
                    allocation_fraction=min(mean_alloc, 1.0),
                )

        n_defl = int(self.vm_deflatable.sum())
        result = ClusterSimResult(
            config=self.config,
            n_vms=len(self.traces),
            n_deflatable=n_defl,
            n_placed=sum(1 for o in self.outcomes if o.placed),
            n_rejected_deflatable=sum(
                1 for o in self.outcomes if o.rejected and o.deflatable
            ),
            n_rejected_on_demand=sum(
                1 for o in self.outcomes if o.rejected and not o.deflatable
            ),
            n_preempted=sum(1 for o in self.outcomes if o.preempted),
            n_reclaim_failures=sum(
                1 for o in self.outcomes if o.reclaim_failure and not o.rejected
            ),
            peak_committed_cores=peak_committed,
            total_capacity_cores=float(self.server_cap[:, 0].sum()),
            throughput_loss=(lost_work / demanded_work) if demanded_work > 0 else 0.0,
            mean_deflation=(deflation_sum / deflation_weight) if deflation_weight else 0.0,
            revenue=revenue,
            revenue_per_server={
                name: rev / self.config.n_servers for name, rev in revenue.items()
            },
            collected={c.name: c.finalize(self) for c in self._collectors},
        )
        return result
