"""Sharded scale-out engine: partitioned scenarios on parallel workers.

The single-process :class:`~repro.scenario.engine.ClusterSimEngine` tops
out around 20k-VM traces; datacenter-scale studies (100k VMs and beyond)
need the replay spread over workers.  Partitioned placement mode (Section
5.2.1) already routes every VM to one of a handful of *disjoint* server
pools — one per priority level plus an on-demand pool — and a pool never
reads or writes another pool's state.  That makes the pool boundary a
perfect shard boundary: this module splits a partitioned scenario into
per-pool sub-scenarios, replays them in parallel worker processes, and
merges the shard results into one :class:`ClusterSimResult` that is
**bit-identical** to running the same scenario flat on ``cluster-sim``
(enforced by ``tests/simulator/test_sharded_equivalence.py``).

How the split stays exact
-------------------------

* **Servers and VMs** — :func:`~repro.simulator.cluster_sim.partition_layout`
  lays pools out contiguously, so shard ``k`` owns global servers
  ``[offset_k, offset_k + count_k)`` and exactly the VMs
  :func:`~repro.simulator.cluster_sim.vm_pool_assignment` routes to pool
  ``k``.  Each shard replays as an ordinary *non-partitioned* simulator:
  within one pool, the flat partitioned run restricts every candidate set
  to the pool's members, which is precisely "the whole cluster" from the
  shard's point of view (the gathered and ungathered array paths compute
  identical values).

* **Failure schedules** — the *flat* schedule is generated once from the
  scenario's failure spec (same model, same seed, same cluster size and
  horizon as ``cluster-sim`` would use), then sliced by server pool with
  indices remapped to shard-local.  Shards replay their slice verbatim
  through a preset-schedule model, so every shard sees exactly the events
  the flat run would deliver to its servers — re-generating per shard
  would draw different randomness and break equivalence.

* **Floats** — cross-shard float accumulations are never merged by adding
  per-shard subtotals (float addition is not associative).  Instead the
  shards ship *per-term* data and the merger replays the flat run's exact
  accumulation order: per-VM metric terms are re-reduced in global VM
  order through :func:`~repro.simulator.cluster_sim.reduce_vm_terms`, and
  committed-cores deltas plus injector summary terms are replayed in the
  global event order ``(time, kind, key)`` — the simulator driver's merge
  key.  Committed-cores values are integer-valued, so the delta replay is
  exact.  A shard without failures or collectors batches each
  timestamp's departures into one logged step, exactly like a flat
  replay; the merged peak cannot move, since departures only lower
  committed cores and every ``(t, END)`` entry sorts before every
  ``(t, START)`` entry.

Caveats (see ``docs/engines.md``): the scenario must be partitioned; the
degenerate pools-outnumber-servers regime is refused; metrics collectors
must implement ``merge_shards`` (the ``timeline`` collector, which records
a cluster-global series, cannot); and worker count never changes results —
it only changes wall-clock time.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.failures.injector import (
    _ARRIVAL,
    _DEADLINE,
    _DIP_END,
    _DIP_START,
    _EVAC,
    _REVOKE,
    FailureInjector,
)
from repro.failures.models import FailureEvent, FailureModel
from repro.registry import create, register
from repro.runtime import raise_on_failures, supervised_map
from repro.scenario.engine import Engine, resolve_workload
from repro.scenario.results import ScenarioResult
from repro.scenario.scenario import Scenario
from repro.simulator.cluster_sim import (
    ClusterSimConfig,
    ClusterSimResult,
    ClusterSimulator,
    VMMetricTerms,
    partition_layout,
    reduce_vm_terms,
    servers_for_overcommitment,
    vm_class_arrays,
    vm_pool_assignment,
)
from repro.simulator.components import MetricsCollector
from repro.traces.schema import VMTraceSet

#: Injector summary metrics that are float accumulations (order-sensitive);
#: the merger replays their terms in global event order instead of summing
#: per-shard subtotals.
_FLOAT_SUMMARY_METRICS = (
    "downtime_intervals",
    "absorbed_core_intervals",
    "lost_core_intervals",
    "arrived_nominal_cores",
)


# -- shard planning ------------------------------------------------------------------


@dataclass(frozen=True)
class ShardMap:
    """Shard-local → global index maps, handed to collector merge hooks."""

    vm_global: np.ndarray  # shard-local VM index -> global VM index
    server_offset: int  # shard-local server 0 == this global index
    n_servers: int  # servers owned by the shard at construction
    #: Global indices of servers that *arrive* into this shard mid-run
    #: (elastic pools), in arrival order: shard-local server
    #: ``n_servers + i`` is global ``arrival_globals[i]``.
    arrival_globals: tuple[int, ...] = ()

    def to_global_server(self, local: int) -> int:
        """Global index of a shard-local server (base range or arrival)."""
        if local < self.n_servers:
            return self.server_offset + local
        return self.arrival_globals[local - self.n_servers]


@dataclass
class ShardSpec:
    """Everything one worker needs to replay a single pool.

    Plain picklable data: sub-trace, a *non-partitioned* simulator config,
    the local→global index maps, and (for failure-injected scenarios) the
    pre-sliced, locally-reindexed failure schedule plus the injector's
    response/drain knobs.
    """

    shard_id: int
    traces: VMTraceSet
    config: ClusterSimConfig
    vm_global: np.ndarray
    server_offset: int
    failures: tuple[FailureEvent, ...] | None
    response: str
    restart_delay: float | None
    warning_intervals: float | None = None
    evacuation_budget: int | dict | None = None
    arrival_globals: tuple[int, ...] = ()

    @property
    def map(self) -> ShardMap:
        return ShardMap(
            vm_global=self.vm_global,
            server_offset=self.server_offset,
            n_servers=self.config.n_servers,
            arrival_globals=self.arrival_globals,
        )


@dataclass
class ShardPlan:
    """The resolved split of one scenario: total cluster size + shard specs."""

    n_servers: int
    specs: list[ShardSpec]


def plan_shards(scenario: Scenario) -> ShardPlan:
    """Split a partitioned scenario into per-pool shard specs.

    Raises :class:`SimulationError` for scenarios the sharded engine cannot
    run exactly: non-partitioned placement (there is no shard boundary),
    the pools-outnumber-servers regime (pools with zero servers), and
    collectors without a ``merge_shards`` hook.
    """
    if not scenario.partitioned:
        raise SimulationError(
            "the sharded engine shards along priority-pool boundaries and "
            "requires partitioned placement; use with_partitions() or run "
            "this scenario on the 'cluster-sim' engine"
        )
    if scenario.checkpoint is not None:
        raise SimulationError(
            "the sharded engine cannot resume a checkpoint: a SimSnapshot "
            "freezes one flat simulator, not per-pool shards — run "
            "checkpointed scenarios on the 'cluster-sim' engine"
        )
    for name in scenario.collectors:
        collector = create("metrics", name)
        if (
            type(collector).merge_shards is MetricsCollector.merge_shards
            or not getattr(collector, "mergeable", True)
        ):
            raise SimulationError(
                f"metrics collector {name!r} does not implement merge_shards; "
                "it cannot observe a sharded replay exactly — drop it or run "
                "on the 'cluster-sim' engine"
            )

    traces = resolve_workload(scenario)
    if scenario.n_servers is not None:
        n_servers = scenario.n_servers
    else:
        target = scenario.overcommitment if scenario.overcommitment is not None else 0.0
        n_servers = servers_for_overcommitment(
            traces, target, cores_per_server=scenario.cores_per_server
        )

    # Per-VM class/priority/capacity — the exact mapping _prepare_vms uses.
    vm_caps, vm_prio, vm_deflatable = vm_class_arrays(traces)
    levels, counts = partition_layout(vm_prio, vm_deflatable, vm_caps, n_servers)
    if np.any(counts == 0):
        raise SimulationError(
            f"cannot shard {len(counts)} pools across {n_servers} servers "
            "(pools outnumber servers, so some pools own no servers); grow "
            "the cluster or run on the 'cluster-sim' engine"
        )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    vm_pool = vm_pool_assignment(vm_prio, vm_deflatable, levels)

    # Failure schedule: generate the flat schedule once, slice per pool.
    # Arrivals route to pool ``ordinal mod n_pools`` — the same static rule
    # ``ClusterSimulator._attach_server`` applies in the flat partitioned
    # replay — and take the next shard-local indices past the shard's base
    # servers, so later events on arrived servers remap through the same
    # table the merger uses to restore global indices.
    sliced: list[tuple[FailureEvent, ...] | None] = [None] * len(counts)
    arrival_globals: list[list[int]] = [[] for _ in counts]
    response, restart_delay = "evacuate", 1.0
    warning_intervals: float | None = None
    evacuation_budget: int | dict | None = None
    if scenario.failures is not None:
        injector = FailureInjector.from_spec(scenario.failures, topology=scenario.topology)
        response, restart_delay = injector.response, injector.restart_delay
        warning_intervals = injector.warning_intervals
        evacuation_budget = injector.evacuation_budget
        schedule = injector.schedule(n_servers, float(traces.horizon()))
        local_of: dict[int, tuple[int, int]] = {}  # arrived global -> (pool, local)
        arrived = sorted(ev.server for ev in schedule if ev.action == "arrive")
        for g in arrived:  # ascending global == arrival (time) order
            k = (g - n_servers) % len(counts)
            local = int(counts[k]) + len(arrival_globals[k])
            arrival_globals[k].append(g)
            local_of[g] = (k, local)
        per_pool: list[list[FailureEvent]] = [[] for _ in counts]
        for ev in schedule:
            if ev.server >= n_servers:
                k, local = local_of[ev.server]
            else:
                k = int(np.searchsorted(offsets, ev.server, side="right")) - 1
                local = ev.server - int(offsets[k])
            per_pool[k].append(dataclasses.replace(ev, server=local))
        sliced = [tuple(evs) for evs in per_pool]

    specs = []
    for k, count in enumerate(counts.tolist()):
        idx = np.nonzero(vm_pool == k)[0]
        config = ClusterSimConfig(
            n_servers=int(count),
            cores_per_server=scenario.cores_per_server,
            memory_per_server_mb=scenario.memory_per_server_mb,
            policy=scenario.policy,
            partitioned=False,
            min_fraction=scenario.min_fraction,
            admission=scenario.admission,
            scorer=scenario.scorer,
            collectors=scenario.collectors,
        )
        specs.append(
            ShardSpec(
                shard_id=k,
                traces=VMTraceSet([traces.records[i] for i in idx.tolist()]),
                config=config,
                vm_global=idx,
                server_offset=int(offsets[k]),
                failures=sliced[k],
                response=response,
                restart_delay=restart_delay,
                warning_intervals=warning_intervals,
                evacuation_budget=evacuation_budget,
                arrival_globals=tuple(arrival_globals[k]),
            )
        )
    return ShardPlan(n_servers=n_servers, specs=specs)


# -- shard execution -----------------------------------------------------------------


class _PresetSchedule(FailureModel):
    """Replays a pre-sliced failure schedule verbatim (shard-internal).

    Deliberately not registered and deliberately *not* horizon-filtered: a
    shard's local horizon can end before a late global failure event that
    the flat run still counts (revoking an idle server bumps the summary
    counters), so the slice must pass through untouched.
    """

    name = "preset-schedule"

    def __init__(self, events: tuple[FailureEvent, ...]) -> None:
        self._events = tuple(events)

    def events(self, n_servers, horizon, rng):
        return list(self._events)


class _ShardSimulator(ClusterSimulator):
    """One pool's replay, with the event recording the merger needs.

    Identical to :class:`ClusterSimulator` except it (a) accepts empty
    trace sets (a pool may own servers but no VMs — they still count
    toward capacity and still receive failure events), (b) stashes the
    per-VM metric terms computed during collection, and (c) logs
    ``(t, kind, key, committed_after, terms)`` after every driver step
    that changed committed cores or accrued a float failure term, so the
    merger can reconstruct the *global* committed-cores trajectory — and
    therefore the flat run's exact peak — plus the flat run's float
    summary accumulations by replaying shard entries in global event order.
    """

    _allow_empty = True

    def __init__(self, traces: VMTraceSet, config: ClusterSimConfig) -> None:
        super().__init__(traces, config)
        self.event_log: list[tuple] = []
        self.terms: VMMetricTerms | None = None
        self._logged_committed = 0.0

    def _metric_terms(self) -> VMMetricTerms:
        self.terms = super()._metric_terms()
        return self.terms

    def _on_step(self, t: float, kind: int, key: int) -> None:
        injector = self._injector
        terms = ()
        if injector is not None and injector.accrued:
            terms = tuple(injector.accrued)
            injector.accrued.clear()
        committed = self._committed_cores
        if terms or committed != self._logged_committed:
            self.event_log.append((t, kind, key, committed, terms))
            self._logged_committed = committed

    def run(self) -> ClusterSimResult:
        # The same body as ClusterSimulator.run, not a call to it:
        # benchmarks/e2e/layers.py wraps each class's own ``run`` in a
        # span, and one shard replay must open exactly one.
        if self._injector is not None:
            self._injector.drive(self)
        else:
            self._replay(None)
        return self._collect()


class _RecordingInjector(FailureInjector):
    """Failure injector that keeps each float accrual for the shard log.

    ``accrued`` holds the ``(metric, value)`` terms of the current driver
    step, in accrual order; :meth:`_ShardSimulator._on_step` moves them
    into the shard's event log.  Everything else merges by integer
    summation and needs no replay.
    """

    def _reset(self) -> None:
        super()._reset()
        self.accrued: list[tuple[str, float]] = []

    def _accrue(self, metric: str, value: float) -> None:
        super()._accrue(metric, value)
        self.accrued.append((metric, value))


@dataclass
class ShardOutput:
    """What one worker ships back: shard result + merge ingredients."""

    shard_id: int
    result: ClusterSimResult
    terms: VMMetricTerms  # sel remapped to *global* VM indices
    ev_t: np.ndarray  # event times
    ev_kind: np.ndarray  # event kinds (the injector's global ordering codes)
    ev_key: np.ndarray  # global VM/server index of each event
    ev_delta: np.ndarray  # committed-cores delta of each event
    ev_terms: list[tuple[int, tuple]]  # sparse (event idx, ((metric, value), ...))
    failure_summary: dict | None


#: Kinds whose event key is a server index (remapped through the shard
#: map's base-range offset or arrival table); all other kinds key by VM
#: index (remapped through ``vm_global``).
_SERVER_KEYED_KINDS = (_ARRIVAL, _REVOKE, _DIP_START, _DIP_END, _EVAC, _DEADLINE)


def _run_shard(spec: ShardSpec) -> ShardOutput:
    """Replay one shard; runs in a worker process (or inline)."""
    sim = _ShardSimulator(spec.traces, spec.config)
    if spec.failures is not None:
        sim.attach_failures(
            _RecordingInjector(
                _PresetSchedule(spec.failures),
                response=spec.response,
                restart_delay=spec.restart_delay,
                warning_intervals=spec.warning_intervals,
                evacuation_budget=spec.evacuation_budget,
            )
        )
    result = sim.run()

    terms = sim.terms._replace(sel=spec.vm_global[sim.terms.sel])
    log = sim.event_log
    shard_map = spec.map
    m = len(log)
    ev_t = np.empty(m, dtype=np.float64)
    ev_kind = np.empty(m, dtype=np.int8)
    ev_key = np.empty(m, dtype=np.int64)
    committed = np.empty(m, dtype=np.float64)
    ev_terms: list[tuple[int, tuple]] = []
    for i, (t, kind, key, after, accrued) in enumerate(log):
        ev_t[i] = t
        ev_kind[i] = kind
        ev_key[i] = (
            shard_map.to_global_server(key)
            if kind in _SERVER_KEYED_KINDS
            else spec.vm_global[key]
        )
        committed[i] = after
        if accrued:
            ev_terms.append((i, accrued))
    # Committed-cores values are integer-valued floats, so the deltas (and
    # the merger's cumulative replay) are exact.
    ev_delta = np.diff(committed, prepend=0.0)
    return ShardOutput(
        shard_id=spec.shard_id,
        result=result,
        terms=terms,
        ev_t=ev_t,
        ev_kind=ev_kind,
        ev_key=ev_key,
        ev_delta=ev_delta,
        ev_terms=ev_terms,
        failure_summary=sim._injector.summary() if sim._injector is not None else None,
    )


# -- merging -------------------------------------------------------------------------


def _merge_terms(terms: list[VMMetricTerms]) -> VMMetricTerms:
    """Concatenate shard terms and reorder them by global VM index.

    The reordered arrays match what a flat run's ``_metric_terms`` would
    produce, so :func:`reduce_vm_terms` then reproduces the flat float
    accumulations exactly.
    """
    sel = np.concatenate([t.sel for t in terms])
    order = np.argsort(sel)  # VM indices are unique: total, deterministic order
    return VMMetricTerms(
        sel=sel[order],
        demanded=np.concatenate([t.demanded for t in terms])[order],
        lost=np.concatenate([t.lost for t in terms])[order],
        deflation=np.concatenate([t.deflation for t in terms])[order],
        alloc_integral=np.concatenate([t.alloc_integral for t in terms])[order],
        cores=np.concatenate([t.cores for t in terms])[order],
        lifetimes=np.concatenate([t.lifetimes for t in terms])[order],
        priorities=np.concatenate([t.priorities for t in terms])[order],
    )


def _replay_events(outputs: list[ShardOutput]) -> tuple[float, dict[str, float]]:
    """Replay shard event streams in global order: peak + summary scalars.

    The global order is ``(t, kind, key)`` with globally-remapped keys —
    exactly the flat replay driver's merge key.  The committed-cores
    trajectory is the cumulative sum of shard deltas in that order (exact:
    integer-valued), and its running maximum is the flat run's peak.
    Float summary terms are re-accumulated left-to-right in the same order,
    reproducing the flat accumulation bit for bit.
    """
    t = np.concatenate([o.ev_t for o in outputs])
    scalars = dict.fromkeys(_FLOAT_SUMMARY_METRICS, 0.0)
    if t.size == 0:
        return 0.0, scalars
    kind = np.concatenate([o.ev_kind for o in outputs])
    key = np.concatenate([o.ev_key for o in outputs])
    delta = np.concatenate([o.ev_delta for o in outputs])
    order = np.lexsort((key, kind, t))
    trajectory = np.cumsum(delta[order])
    peak = max(0.0, float(trajectory.max()))

    term_map: dict[int, tuple] = {}
    base = 0
    for o in outputs:
        for i, accrued in o.ev_terms:
            term_map[base + i] = accrued
        base += o.ev_t.size
    if term_map:
        for pos in order.tolist():
            accrued = term_map.get(pos)
            if accrued:
                for metric, value in accrued:
                    scalars[metric] = scalars[metric] + value
    return peak, scalars


_INT_RESULT_FIELDS = (
    "n_vms",
    "n_deflatable",
    "n_placed",
    "n_rejected_deflatable",
    "n_rejected_on_demand",
    "n_preempted",
    "n_reclaim_failures",
)


def merge_shard_outputs(
    scenario: Scenario, plan: ShardPlan, outputs: list[ShardOutput]
) -> ClusterSimResult:
    """Fold shard outputs into the flat run's :class:`ClusterSimResult`."""
    config = scenario.sim_config(plan.n_servers)
    counts = {
        f: sum(getattr(o.result, f) for o in outputs) for f in _INT_RESULT_FIELDS
    }
    peak, scalars = _replay_events(outputs)
    agg = reduce_vm_terms(_merge_terms([o.terms for o in outputs]))

    # The exact expression the flat simulator evaluates (nominal capacity;
    # same array layout, same pairwise reduction), plus the arrival cores
    # replayed term-by-term in global event order — the same decomposition
    # ``FailureInjector.nominal_total_cores`` uses, so the sum is exact.
    total_capacity = (
        float(
            np.tile(
                np.array([config.cores_per_server, config.memory_per_server_mb]),
                (plan.n_servers, 1),
            )[:, 0].sum()
        )
        + scalars["arrived_nominal_cores"]
    )

    collected: dict[str, object] = {}
    maps = [spec.map for spec in plan.specs]
    for name in scenario.collectors:
        collector = create("metrics", name)
        collected[name] = collector.merge_shards(
            [o.result.collected[name] for o in outputs], maps
        )
    if scenario.failures is not None:
        summary: dict = {}
        for o in outputs:
            for k, v in (o.failure_summary or {}).items():
                if k not in _FLOAT_SUMMARY_METRICS:
                    summary[k] = summary.get(k, 0) + v
        summary.update(scalars)
        collected["failure-injection"] = summary

    demanded, lost = agg["demanded_work"], agg["lost_work"]
    deflation_sum, deflation_weight = agg["deflation_sum"], agg["deflation_weight"]
    revenue = agg["revenue"]
    return ClusterSimResult(
        config=config,
        peak_committed_cores=peak,
        total_capacity_cores=total_capacity,
        throughput_loss=(lost / demanded) if demanded > 0 else 0.0,
        mean_deflation=(deflation_sum / deflation_weight) if deflation_weight else 0.0,
        revenue=revenue,
        revenue_per_server={
            name: rev / config.n_servers for name, rev in revenue.items()
        },
        collected=collected,
        **counts,
    )


# -- the engine ----------------------------------------------------------------------


@register("engine", "sharded")
class ShardedEngine(Engine):
    """Scale-out backend: per-pool shards on parallel worker processes.

    Select it per scenario (``Scenario.with_engine("sharded")``) or per
    run (``scenario.run(engine="sharded")``).  Results are bit-identical
    to ``cluster-sim`` on every supported scenario, for any worker count —
    workers only change wall-clock time, never floats — so cached results
    and cross-engine comparisons stay trustworthy.

    ``workers`` defaults to the ``REPRO_SHARDED_WORKERS`` environment
    variable, then to the machine's CPU count, and is always capped by
    both the shard count and the CPU count (oversubscribing cores with
    CPU-bound shard replays only adds overhead).  Inside an
    already-parallel ``run_sweep`` worker (a daemon process, which cannot
    fork children) the shards simply run serially — same results, no
    nested pools.

    Shards execute on the supervised runtime
    (:func:`repro.runtime.supervised_map`, ``docs/robustness.md``): a
    crashed shard worker is replaced and its shard retried (deterministic,
    so the retry is bit-identical), and with the fork start method the
    workers inherit the (large) shard specs instead of unpickling them —
    only shard indices cross the pipe.  A shard still failing after its
    retries aborts the run with :class:`~repro.errors.SweepError`: a
    merged result is only ever built from every shard.
    """

    name = "sharded"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers

    def plan(self, scenario: Scenario) -> ShardPlan:
        """The shard split this engine would execute (validates eagerly)."""
        return plan_shards(scenario)

    def run(self, scenario: Scenario) -> ScenarioResult:
        plan = plan_shards(scenario)
        outputs = self._execute(plan.specs)
        return ScenarioResult(
            scenario=scenario, sim=merge_shard_outputs(scenario, plan, outputs)
        )

    def _resolve_workers(self, n_shards: int) -> int:
        workers = self.workers
        if workers is None:
            env = os.environ.get("REPRO_SHARDED_WORKERS", "")
            try:
                workers = int(env) if env else (os.cpu_count() or 1)
            except ValueError:
                raise SimulationError(
                    f"REPRO_SHARDED_WORKERS must be an integer, got {env!r}"
                ) from None
        # Cap at the CPU count: shard replays are pure CPU-bound work, so
        # more processes than cores can never go faster and measurably go
        # slower (scheduler thrash + fork copy-on-write faults).  Requests
        # are capped, never padded.
        return max(1, min(int(workers), n_shards, os.cpu_count() or 1))

    def _execute(self, specs: list[ShardSpec]) -> list[ShardOutput]:
        # supervised_map dispatches shards one at a time (the old
        # chunksize=1) and falls back to in-process execution for daemonic
        # callers (a scenario already inside a run_sweep worker) and
        # workers <= 1 — same results either way.
        outcomes = supervised_map(
            _run_shard, specs, workers=self._resolve_workers(len(specs))
        )
        raise_on_failures(outcomes, what="shard")
        return [o.value for o in outcomes]
