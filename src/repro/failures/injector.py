"""Failure injection: driving revocations and capacity dips through the replay.

The :class:`FailureInjector` owns the failure side of a simulation run.  It
expands a :class:`~repro.failures.models.FailureModel` schedule against the
resolved cluster into a heap of failure events; the simulator's one
driver (``ClusterSimulator._replay``) merges that heap with its sorted VM
event cursor and hands every failure event to
:meth:`FailureInjector.handle` — the event loop itself stays the
deterministic heart of the system, failures are just more events.

Semantics, per event kind (ties at one interval are processed in this
order — server arrivals, VM departures, VM arrivals, revocations, dip
ends, dip starts, requeued restarts, evacuation ticks, evacuation
deadlines):

* **revocation** — the server leaves for good; every VM it hosted is
  handled according to ``response``:

  - ``"evacuate"`` (deflation-first): each resident is re-placed through
    the normal admission/scoring path, deflating the destination's
    residents as needed — the paper's thesis applied to transience:
    deflation *absorbs* the revocation.  On-demand residents are placed
    first (they cannot be deflated into a tight spot), then deflatable
    ones.  Without a warning window the server's capacity drops to zero
    immediately and residents that no surviving server can take are
    lost.  With ``warning_intervals`` set, the revocation is a *warning*:
    the server stops accepting placements (draining) but keeps running,
    and migration is rationed by ``evacuation_budget`` — at most ``k``
    VMs (or ``c`` cores) per interval move, one evacuation tick per
    interval, until the deadline ``warning_intervals`` later, when the
    capacity finally drops to zero and the stragglers are killed.  A
    resident that finds no destination at one tick simply stays put and
    retries at the next.
  - ``"kill"`` (kill-and-requeue): every resident is killed on the spot —
    the classic preemption experience — and re-queued to restart
    ``restart_delay`` intervals later through normal admission.  The gap
    between kill and successful restart is recorded as downtime; VMs whose
    restart is rejected (or whose lifetime ends first) are lost.

* **capacity dip** — the server's capacity is scaled by the event's
  ``scale`` for its duration.  Under a deflation policy the standard
  rebalance squeezes residents into the reduced capacity (and reinflates
  them when the dip ends); under the preemption baseline the lowest
  priority deflatable residents are evicted until the remainder fits.

* **server arrival** — a new server joins the cluster at nominal shape
  (elastic transient pools): the simulator grows its per-server state,
  the nominal-capacity accounting adds the arrival's cores, and from that
  instant the server is an ordinary placement candidate (in partitioned
  mode it joins pool ``ordinal mod n_pools``, a static rule the sharded
  engine replicates when slicing).

Lost and absorbed work are tallied in core-intervals (VM cores x trace
intervals; one interval is 5 minutes of VM-seconds per core) so "how much
work did deflation save" is directly comparable across VM sizes.  The
tallies are event-level: a VM revoked twice contributes at each event.

The injector is attached by the engine when a scenario carries a
``failures`` spec (:meth:`Scenario.with_failures`); a simulator without an
injector replays with an empty failure heap.
"""

from __future__ import annotations

import copy
import heapq

import numpy as np

from repro.errors import SimulationError
from repro.failures.models import FailureModel, check_topology, resolve_topology
from repro.registry import create

#: Event kinds, ordered by processing priority within one interval — the
#: one code space of every replay (the simulator's VM cursor sorts by
#: ``_END``/``_START``).  Server ARRIVALs come first (new capacity is usable
#: by anything else at that interval); END before START.  Dip
#: *ends* sort before dip *starts* so back-to-back dips (one ending exactly
#: when the next begins) hand over cleanly instead of the ending dip
#: cancelling the just-started one.  Evacuation ticks (EVAC) and drain
#: DEADLINEs come last, after the interval's departures freed capacity and
#: its requeues landed.  The sharded engine's merger replays shard streams
#: in this same ``(t, kind, key)`` order, so renumbering these is a
#: cross-module change (see ``repro.simulator.sharded`` and the
#: ``failure-log`` collector's ``merge_shards``).
_ARRIVAL, _END, _START, _REVOKE, _DIP_END, _DIP_START, _REQUEUE, _EVAC, _DEADLINE = range(9)

#: ``response`` modes for revocations.
RESPONSES = ("evacuate", "kill")

#: Keys of a scenario ``failures`` spec consumed by the injector itself;
#: everything else is passed to the failure model's constructor.
INJECTOR_KEYS = (
    "model",
    "seed",
    "response",
    "restart_delay",
    "warning_intervals",
    "evacuation_budget",
)


class FailureInjector:
    """Drives one failure schedule through one simulator replay.

    Parameters
    ----------
    model:
        The schedule generator (a registered ``failure`` component).
    seed:
        Seed for the schedule's RNG.  The same ``(model spec, seed)`` on the
        same cluster always yields the same schedule, so failure-injected
        runs stay deterministic across processes and cache layers.
    response:
        ``"evacuate"`` for deflation-first migration off revoked servers,
        ``"kill"`` for kill-and-requeue (see the module docstring).
    restart_delay:
        Intervals between a kill and the requeued restart attempt
        (``response="kill"`` only).  ``None`` disables requeueing: killed
        VMs are simply lost.
    warning_intervals:
        Revocation warning window (``response="evacuate"`` only).  ``None``
        (the default) keeps the legacy instant evacuation; a positive
        value turns every revocation into a timed drain with one
        evacuation tick per interval and a straggler-killing deadline
        ``warning_intervals`` after the warning.
    evacuation_budget:
        Per-tick migration ration during a drain (requires
        ``warning_intervals``): an int ``k`` (at most ``k`` VMs per tick)
        or ``{"cores": c}`` (successful migrations totalling at most ``c``
        cores per tick; a VM larger than the whole budget still moves when
        it is the tick's first migration, so nothing starves).  ``None``
        moves everything the cluster can take at the first tick.
    topology:
        The scenario's ``topology`` spec (racks/groups), resolved against
        the cluster size at schedule time and handed to topology-aware
        models; ``None`` for topology-free scenarios.
    """

    def __init__(
        self,
        model: FailureModel,
        seed: int = 0,
        response: str = "evacuate",
        restart_delay: float | None = 1.0,
        warning_intervals: float | None = None,
        evacuation_budget: int | dict | None = None,
        topology: dict | None = None,
    ) -> None:
        if response not in RESPONSES:
            raise SimulationError(f"response must be one of {RESPONSES}, got {response!r}")
        if restart_delay is not None and restart_delay < 0:
            raise SimulationError("restart_delay must be >= 0 intervals")
        if warning_intervals is not None:
            if warning_intervals <= 0:
                raise SimulationError(
                    "warning_intervals must be > 0 (omit it for instant evacuation)"
                )
            if response != "evacuate":
                raise SimulationError(
                    'warning_intervals only applies to response="evacuate" '
                    "(kills model zero-warning reclamation)"
                )
        self._budget_vms, self._budget_cores = self._parse_budget(
            evacuation_budget, warning_intervals
        )
        if topology is not None:
            check_topology(topology)
        self.model = model
        self.seed = int(seed)
        self.response = response
        self.restart_delay = restart_delay
        self.warning_intervals = (
            None if warning_intervals is None else float(warning_intervals)
        )
        self.evacuation_budget = evacuation_budget
        self.topology = topology
        #: The declarative ``failures`` spec this injector was built from
        #: (:meth:`from_spec` only; None for direct construction).  Snapshot
        #: restores compare it to decide between resuming the stored event
        #: heap verbatim and rebuilding a fresh schedule for a what-if fork.
        self.spec: dict | None = None
        self._reset()

    @staticmethod
    def _parse_budget(
        budget: int | dict | None, warning_intervals: float | None
    ) -> tuple[int | None, float | None]:
        """Normalize an ``evacuation_budget`` spec to ``(vms, cores)``."""
        if budget is None:
            return None, None
        if warning_intervals is None:
            raise SimulationError(
                "evacuation_budget needs warning_intervals (a ration only "
                "means something over a warning window)"
            )
        if isinstance(budget, dict):
            unknown = sorted(set(budget) - {"vms", "cores"})
            if unknown or len(budget) != 1:
                raise SimulationError(
                    'evacuation_budget dict needs exactly one of "vms" or '
                    f'"cores", got {sorted(budget)}'
                )
            if "vms" in budget:
                vms = int(budget["vms"])
                if vms < 1:
                    raise SimulationError("evacuation_budget vms must be >= 1")
                return vms, None
            cores = float(budget["cores"])
            if cores <= 0:
                raise SimulationError("evacuation_budget cores must be > 0")
            return None, cores
        vms = int(budget)
        if vms < 1:
            raise SimulationError("evacuation_budget must be >= 1 VMs per interval")
        return vms, None

    @classmethod
    def from_spec(cls, spec: dict, topology: dict | None = None) -> "FailureInjector":
        """Build an injector from a scenario's ``failures`` dict.

        The spec mixes injector knobs (``seed``, ``response``,
        ``restart_delay``, ``warning_intervals``, ``evacuation_budget``)
        with model parameters; everything that is not an injector key is
        forwarded to the registered model's constructor, so ``{"model":
        "spot", "rate": 0.002, "seed": 7}`` builds
        ``SpotRevocations(rate=0.002)`` driven with seed 7.  ``topology``
        is the scenario's cluster topology spec (not part of the failure
        spec — the same topology can serve several failure models).
        """
        params = dict(spec)
        try:
            name = params.pop("model")
        except KeyError:
            raise SimulationError('failure spec needs a "model" key') from None
        seed = params.pop("seed", 0)
        response = params.pop("response", "evacuate")
        restart_delay = params.pop("restart_delay", 1.0)
        warning_intervals = params.pop("warning_intervals", None)
        evacuation_budget = params.pop("evacuation_budget", None)
        model = create("failure", name, **params)
        injector = cls(
            model,
            seed=seed,
            response=response,
            restart_delay=restart_delay,
            warning_intervals=warning_intervals,
            evacuation_budget=evacuation_budget,
            topology=topology,
        )
        injector.spec = copy.deepcopy(spec)
        return injector

    # -- per-run state -----------------------------------------------------------

    def _reset(self) -> None:
        self._revoked: set[int] = set()
        self._dip_active: dict[int, float] = {}
        self._requeue_pending: dict[int, float] = {}  # vm -> kill time
        self._draining: dict[int, float] = {}  # server -> deadline
        self._drain_queue: dict[int, list[int]] = {}  # server -> pending VMs
        self._nominal_cap: np.ndarray | None = None
        self._initial_cores = 0.0
        #: Failure events still to fire, ``(t, kind, server_or_vm, aux)``;
        #: built by :meth:`start`, drained by the simulator's driver, fed
        #: by the dynamic pushes of requeues and drains.
        self._heap: list[tuple[float, int, int, float]] | None = None
        self.counts = {
            "revocations": 0,
            "capacity_dips": 0,
            "server_arrivals": 0,
            "evacuated": 0,
            "evacuation_lost": 0,
            "deadline_killed": 0,
            "killed": 0,
            "recovered": 0,
            "requeue_lost": 0,
            "on_demand_lost": 0,
            "cascade_preemptions": 0,
            "capacity_overruns": 0,
        }
        self.downtime_intervals = 0.0
        self.absorbed_core_intervals = 0.0
        self.lost_core_intervals = 0.0
        self.arrived_nominal_cores = 0.0

    def _accrue(self, metric: str, value: float) -> None:
        """Add one term to a float summary metric (``downtime_intervals``,
        ``absorbed_core_intervals``, ``lost_core_intervals``).

        Every accrual flows through here so the arithmetic stays a single
        left-to-right accumulation; the sharded engine's recording injector
        overrides this to log each term, letting the shard merger replay
        the terms in global event order and reproduce the flat run's float
        accumulation bit for bit.
        """
        setattr(self, metric, getattr(self, metric) + value)

    def nominal_total_cores(self) -> float:
        """Provisioned CPU capacity: the initial fleet plus every arrival.

        Kept as ``initial + accrued-arrival-cores`` (not a fresh array sum
        over the grown capacity matrix) so the sharded merger can reproduce
        it exactly: the initial term is the flat tile-sum both engines
        evaluate identically, and the arrival term replays through the
        order-sensitive float-accrual machinery.
        """
        if self._nominal_cap is None:
            raise SimulationError("injector has not driven a replay yet")
        return self._initial_cores + self.arrived_nominal_cores

    def summary(self) -> dict:
        """Plain-scalar failure metrics, stored under ``collected``.

        All values are JSON-serializable, so failure-injected results ride
        through the on-disk :class:`~repro.scenario.cache.SweepCache`
        unchanged.
        """
        return {
            **self.counts,
            "servers_revoked": len(self._revoked),
            "downtime_intervals": self.downtime_intervals,
            "absorbed_core_intervals": self.absorbed_core_intervals,
            "lost_core_intervals": self.lost_core_intervals,
            "arrived_nominal_cores": self.arrived_nominal_cores,
        }

    # -- the failure stream ---------------------------------------------------------

    def schedule(self, n_servers: int, horizon: float):
        """The validated flat failure schedule for one replay.

        Seeds the RNG, resolves the scenario topology against the cluster
        size, and runs the model's topology-aware entry point.  Arrival
        events are validated to use contiguous indices (``n_servers``,
        ``n_servers + 1``, ... in time order) and every other event must
        target a server that exists — initial fleet or arrival.  Shared by
        :meth:`start` and the sharded engine's slicer, which must see the
        *same* flat schedule to stay bit-identical.
        """
        rng = np.random.default_rng(self.seed)
        group_ids = resolve_topology(self.topology, n_servers)
        events = self.model.events_with_topology(n_servers, horizon, rng, group_ids)
        arrivals = sorted(
            ((ev.time, ev.server) for ev in events if ev.action == "arrive")
        )
        for j, (_, server) in enumerate(arrivals):
            if server != n_servers + j:
                raise SimulationError(
                    f"failure model {self.model.name!r} scheduled arrival index "
                    f"{server}; arrivals must be contiguous from {n_servers} "
                    "in time order"
                )
        n_total = n_servers + len(arrivals)
        arrival_time = {server: time for time, server in arrivals}
        for ev in events:
            if ev.action == "arrive":
                continue
            if ev.server >= n_total:
                raise SimulationError(
                    f"failure model {self.model.name!r} scheduled server "
                    f"{ev.server} on a {n_servers}-server cluster"
                    + (f" with {len(arrivals)} arrivals" if arrivals else "")
                )
            if ev.server >= n_servers and ev.time < arrival_time[ev.server]:
                raise SimulationError(
                    f"failure model {self.model.name!r} scheduled a "
                    f"{ev.action} on server {ev.server} at t={ev.time} "
                    f"before its arrival at t={arrival_time[ev.server]}"
                )
        return events

    def drive(self, sim) -> None:
        """Run ``sim``'s replay to the end under this injector.

        :meth:`ClusterSimulator.run`'s entry when an injector is attached:
        :meth:`start` (called as the simulator's event stream opens) plus
        the simulator's shared driver, which merges this injector's heap
        with the VM event cursor and dispatches failure events to
        :meth:`handle`.
        """
        sim._replay(None)

    def start(self, sim) -> None:
        """Reset per-run state and build the failure heap for one replay.

        The heap holds failure events only; VM starts and ends stay on the
        simulator's sorted cursor.
        """
        self._reset()
        self._nominal_cap = sim.server_cap.copy()
        self._initial_cores = float(self._nominal_cap[:, 0].sum())
        schedule = self.schedule(sim.config.n_servers, float(sim.traces.horizon()))
        heap: list[tuple[float, int, int, float]] = []
        for ev in schedule:
            if ev.action == "revoke":
                heap.append((ev.time, _REVOKE, ev.server, 0.0))
            elif ev.action == "arrive":
                heap.append((ev.time, _ARRIVAL, ev.server, 0.0))
            else:
                heap.append((ev.time, _DIP_START, ev.server, ev.scale))
                heap.append((ev.time + ev.duration, _DIP_END, ev.server, 0.0))
        self._check_dip_overlap(schedule)
        heapq.heapify(heap)
        self._heap = heap

    def handle(self, sim, t: float, kind: int, key: int, aux: float) -> None:
        """Process one failure-heap event (any kind but END/START).

        ``key`` is the server index, or the VM index for a REQUEUE; ``aux``
        is a dip's capacity scale.
        """
        heap = self._heap
        if kind == _REVOKE:
            self._revoke(sim, t, key, heap)
        elif kind == _DIP_START:
            self._dip_start(sim, t, key, aux)
        elif kind == _DIP_END:
            self._dip_end(sim, t, key)
        elif kind == _ARRIVAL:
            self._arrive(sim, t, key)
        elif kind == _EVAC:
            self._evac_tick(sim, t, key, heap)
        elif kind == _DEADLINE:
            self._deadline(sim, t, key)
        else:
            self._requeue(sim, t, key)

    # -- snapshot/restore ---------------------------------------------------------

    def state_snapshot(self) -> dict:
        """Copy of the injector's mutable mid-replay state (plus the heap).

        Everything a resumed replay needs to continue bit-identically:
        accruals and counts, revocation/dip/drain/requeue bookkeeping, the
        nominal-capacity matrix, and the remaining failure heap stored as a
        sorted list (safe: every ``(t, kind, key)`` is unique, so pop order
        only depends on the entry *set*).  The constructor identity (``spec`` + topology)
        rides along so a restore can tell a pure resume from a what-if
        fork into a different failure regime.
        """
        if self._heap is None:
            raise SimulationError("injector has not driven a replay yet")
        return {
            "spec": copy.deepcopy(self.spec),
            "topology": copy.deepcopy(self.topology),
            "revoked": sorted(self._revoked),
            "dip_active": dict(self._dip_active),
            "requeue_pending": dict(self._requeue_pending),
            "draining": dict(self._draining),
            "drain_queue": {s: list(q) for s, q in self._drain_queue.items()},
            "nominal_cap": self._nominal_cap.copy(),
            "initial_cores": self._initial_cores,
            "counts": dict(self.counts),
            "downtime_intervals": self.downtime_intervals,
            "absorbed_core_intervals": self.absorbed_core_intervals,
            "lost_core_intervals": self.lost_core_intervals,
            "arrived_nominal_cores": self.arrived_nominal_cores,
            "heap": tuple(sorted(self._heap)),
        }

    def restore_state(self, state: dict) -> None:
        """Reinstate a :meth:`state_snapshot` for a verbatim resume.

        Only valid when this injector drives the *same* failure stream the
        snapshot was taken under (same spec, seed, and topology) — the
        caller (:mod:`repro.simulator.snapshot`) checks that; a different
        spec must rebuild via :meth:`start` instead.
        """
        self._revoked = set(state["revoked"])
        self._dip_active = dict(state["dip_active"])
        self._requeue_pending = dict(state["requeue_pending"])
        self._draining = dict(state["draining"])
        self._drain_queue = {s: list(q) for s, q in state["drain_queue"].items()}
        self._nominal_cap = state["nominal_cap"].copy()
        self._initial_cores = state["initial_cores"]
        self.counts = dict(state["counts"])
        self.downtime_intervals = state["downtime_intervals"]
        self.absorbed_core_intervals = state["absorbed_core_intervals"]
        self.lost_core_intervals = state["lost_core_intervals"]
        self.arrived_nominal_cores = state["arrived_nominal_cores"]
        heap = [tuple(entry) for entry in state["heap"]]
        heapq.heapify(heap)
        self._heap = heap

    @staticmethod
    def state_is_pristine(state: dict) -> bool:
        """True when the snapshot saw no failure activity before its boundary.

        A pristine prefix (no revocations, dips, arrivals, drains, or
        requeues processed; all accruals zero) is shared by *every* failure
        regime, so it may be forked into a different spec; a contaminated
        prefix may only be resumed under the spec that produced it.
        """
        return (
            not state["revoked"]
            and not state["dip_active"]
            and not state["requeue_pending"]
            and not state["draining"]
            and not state["drain_queue"]
            and all(v == 0 for v in state["counts"].values())
            and state["downtime_intervals"] == 0.0
            and state["absorbed_core_intervals"] == 0.0
            and state["lost_core_intervals"] == 0.0
            and state["arrived_nominal_cores"] == 0.0
        )

    @staticmethod
    def _check_dip_overlap(schedule) -> None:
        """Reject schedules with overlapping dips on one server.

        ``_dip_active`` holds a single scale per server, so an overlap
        would silently end early when the first dip's end restores full
        capacity.  The stock random models never overlap by construction;
        an explicit ``trace-schedule`` can, and must fail loudly instead
        of mis-simulating.
        """
        windows: dict[int, list[tuple[float, float]]] = {}
        for ev in schedule:
            if ev.action == "dip":
                windows.setdefault(ev.server, []).append((ev.time, ev.time + ev.duration))
        for server, spans in windows.items():
            spans.sort()
            for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
                if b_start < a_end - 1e-9:
                    raise SimulationError(
                        f"overlapping capacity dips on server {server} "
                        f"(next dip starts at {b_start} before the previous "
                        f"ends at {a_end}); merge or separate them"
                    )

    def _place_tracked(self, sim, t: float, vm: int) -> bool:
        """``sim._place`` with preemption-cascade loss accounting.

        Under the preemption baseline, placing an evacuated/requeued
        on-demand VM may preempt deflatable residents on the destination
        server.  That collateral work is lost *to the failure*, so it is
        tallied exactly like the dip path's evictions.
        """
        log: list[int] = []
        sim._preempt_log = log
        try:
            placed = sim._place(t, vm)
        finally:
            sim._preempt_log = None
        for victim in log:
            self.counts["cascade_preemptions"] += 1
            self._accrue(
                "lost_core_intervals",
                max(0.0, float(sim.vm_end[victim]) - t) * float(sim.vm_caps[victim, 0]),
            )
        return placed

    # -- revocations -------------------------------------------------------------

    def _ordered_residents(self, sim, server: int) -> list[int]:
        """Evacuation order: on-demand residents first, then deflatable.

        On-demand VMs cannot be deflated into a tight destination, so they
        get first pick of the surviving capacity.
        """
        residents = list(sim.residents[server])
        return [v for v in residents if not sim.vm_deflatable[v]] + [
            v for v in residents if sim.vm_deflatable[v]
        ]

    def _revoke(self, sim, t: float, server: int, heap: list) -> None:
        if server in self._revoked or server in self._draining:
            return
        if self.warning_intervals is not None and self.response == "evacuate":
            # Warned revocation: the server drains — no new placements,
            # budgeted evacuation ticks, stragglers killed at the deadline.
            deadline = t + self.warning_intervals
            self._draining[server] = deadline
            self._drain_queue[server] = self._ordered_residents(sim, server)
            self.counts["revocations"] += 1
            sim._mark_draining(server)
            for c in sim._collectors:
                c.on_revocation(t, server, sim)
            heapq.heappush(heap, (t, _EVAC, server, 0.0))
            heapq.heappush(heap, (deadline, _DEADLINE, server, 0.0))
            return
        self._revoked.add(server)
        self.counts["revocations"] += 1
        self._dip_active.pop(server, None)
        sim._mark_revoked(server)
        for c in sim._collectors:
            c.on_revocation(t, server, sim)
        for vm in self._ordered_residents(sim, server):
            if self.response == "evacuate":
                self._evacuate(sim, t, vm, server)
            else:
                self._kill(sim, t, vm, server, heap)

    def _evacuate(self, sim, t: float, vm: int, server: int) -> None:
        sim._detach(vm, server)
        sim.vm_server[vm] = -1
        remaining = max(0.0, float(sim.vm_end[vm]) - t)
        cores = float(sim.vm_caps[vm, 0])
        if self._place_tracked(sim, t, vm):
            self.counts["evacuated"] += 1
            self._accrue("absorbed_core_intervals", remaining * cores)
        else:
            self.counts["evacuation_lost"] += 1
            self._accrue("lost_core_intervals", remaining * cores)
            self._mark_lost(sim, t, vm, server)

    def _kill(self, sim, t: float, vm: int, server: int, heap: list) -> None:
        sim._detach(vm, server)
        sim.vm_server[vm] = -1
        self._mark_lost(sim, t, vm, server)
        self.counts["killed"] += 1
        end = float(sim.vm_end[vm])
        if self.restart_delay is not None and t + self.restart_delay < end:
            self._requeue_pending[vm] = t
            heapq.heappush(heap, (t + self.restart_delay, _REQUEUE, vm, 0.0))
        else:
            self._accrue("lost_core_intervals", max(0.0, end - t) * float(sim.vm_caps[vm, 0]))

    def _requeue(self, sim, t: float, vm: int) -> None:
        kill_t = self._requeue_pending.pop(vm)
        cores = float(sim.vm_caps[vm, 0])
        end = float(sim.vm_end[vm])
        if self._place_tracked(sim, t, vm):
            out = sim.outcomes[vm]
            out.preempted = False
            out.end_interval = end
            if sim.vm_deflatable[vm]:
                sim.vm_preempted[vm] = False
            else:
                self.counts["on_demand_lost"] -= 1  # it came back after all
            self.counts["recovered"] += 1
            self._accrue("downtime_intervals", t - kill_t)
            self._accrue("absorbed_core_intervals", (end - t) * cores)
            self._accrue("lost_core_intervals", (t - kill_t) * cores)
        else:
            self.counts["requeue_lost"] += 1
            self._accrue("lost_core_intervals", (end - kill_t) * cores)

    def _mark_lost(self, sim, t: float, vm: int, server: int) -> None:
        """Terminate a VM the way a preemption does (flags + history).

        The ``vm_preempted`` array feeds ``n_preempted`` and therefore the
        Figure 20 ``failure_probability``, which is defined over
        *deflatable* VMs — so only deflatable victims raise it.  On-demand
        victims keep their ``VMOutcome.preempted`` flag (which ends their
        replay) and are tallied in :meth:`summary` as ``on_demand_lost``.
        """
        out = sim.outcomes[vm]
        out.preempted = True
        out.end_interval = t
        if sim.vm_deflatable[vm]:
            sim.vm_preempted[vm] = True
            sim._append_history_one(vm, t, 0.0)
            sim._last_frac[vm] = 0.0
        else:
            self.counts["on_demand_lost"] += 1
        for c in sim._collectors:
            c.on_preempt(t, vm, server, sim)

    # -- warning-time drains -------------------------------------------------------

    def _evac_tick(self, sim, t: float, server: int, heap: list) -> None:
        """One budgeted evacuation round off a draining server.

        Walks the pending queue in evacuation order, migrating VMs through
        the normal placement path until the per-tick budget is spent.  VMs
        that ended naturally drop out; VMs with no feasible destination
        (or beyond the budget) stay queued for the next tick.  A VM larger
        than a cores budget still moves as a tick's first migration, so a
        drain always makes progress when the cluster has room.
        """
        if server in self._revoked:
            return
        pending = self._drain_queue.get(server)
        if not pending:
            return
        moved_vms = 0
        moved_cores = 0.0
        still_pending: list[int] = []
        for vm in pending:
            if vm not in sim.residents[server]:
                continue  # ended naturally during the drain
            cores = float(sim.vm_caps[vm, 0])
            over_vms = self._budget_vms is not None and moved_vms >= self._budget_vms
            over_cores = (
                self._budget_cores is not None
                and moved_vms > 0
                and moved_cores + cores > self._budget_cores + 1e-9
            )
            if over_vms or over_cores:
                still_pending.append(vm)
                continue
            if self._evacuate_draining(sim, t, vm, server):
                moved_vms += 1
                moved_cores += cores
            else:
                still_pending.append(vm)
        self._drain_queue[server] = still_pending
        if still_pending and t + 1.0 < self._draining[server] - 1e-9:
            heapq.heappush(heap, (t + 1.0, _EVAC, server, 0.0))

    def _evacuate_draining(self, sim, t: float, vm: int, server: int) -> bool:
        """Migrate one VM off a draining server; False leaves it in place.

        Unlike the instant-evacuation path, failure here is not loss — the
        source server is still running, so the VM simply stays resident
        and the caller retries at the next tick (the deadline is what
        finally kills stragglers).
        """
        sim._detach(vm, server)
        sim.vm_server[vm] = -1
        if self._place_tracked(sim, t, vm):
            self.counts["evacuated"] += 1
            self._accrue(
                "absorbed_core_intervals",
                max(0.0, float(sim.vm_end[vm]) - t) * float(sim.vm_caps[vm, 0]),
            )
            if sim._policy is not None and sim.resident_deflatable[server]:
                # The departure relieved pressure on the source: reinflate
                # the residents still waiting their turn.
                sim._rebalance(t, server)
            return True
        sim._reattach(vm, server)
        sim.vm_server[vm] = server
        return False

    def _deadline(self, sim, t: float, server: int) -> None:
        """The warning window closed: kill stragglers, revoke for real."""
        if server in self._revoked:
            return
        pending = self._drain_queue.pop(server, [])
        del self._draining[server]
        self._revoked.add(server)
        self._dip_active.pop(server, None)
        sim._end_draining(server)
        sim._mark_revoked(server)
        for vm in pending:
            if vm not in sim.residents[server]:
                continue
            sim._detach(vm, server)
            sim.vm_server[vm] = -1
            self.counts["deadline_killed"] += 1
            self._accrue(
                "lost_core_intervals",
                max(0.0, float(sim.vm_end[vm]) - t) * float(sim.vm_caps[vm, 0]),
            )
            self._mark_lost(sim, t, vm, server)
        for c in sim._collectors:
            c.on_evacuation_deadline(t, server, sim)

    # -- server arrivals -----------------------------------------------------------

    def _arrive(self, sim, t: float, server: int) -> None:
        """Attach one arriving server (elastic transient capacity)."""
        sim._attach_server(server)
        row = sim.server_cap[server]
        self._nominal_cap = np.vstack([self._nominal_cap, row[None, :]])
        self.counts["server_arrivals"] += 1
        self._accrue("arrived_nominal_cores", float(row[0]))
        for c in sim._collectors:
            c.on_server_arrival(t, server, sim)

    # -- capacity dips -----------------------------------------------------------

    def _dip_start(self, sim, t: float, server: int, scale: float) -> None:
        if server in self._revoked:
            return
        self._dip_active[server] = scale
        self.counts["capacity_dips"] += 1
        sim.server_cap[server] = self._nominal_cap[server] * scale
        sim._cap_eps[server] = sim.server_cap[server] + 1e-9
        for c in sim._collectors:
            c.on_capacity_dip(t, server, scale, sim)
        self._absorb_pressure(sim, t, server)

    def _dip_end(self, sim, t: float, server: int) -> None:
        if server in self._revoked or server not in self._dip_active:
            return
        del self._dip_active[server]
        sim.server_cap[server] = self._nominal_cap[server]
        sim._cap_eps[server] = sim.server_cap[server] + 1e-9
        for c in sim._collectors:
            c.on_capacity_dip(t, server, 1.0, sim)
        if sim._policy is not None and sim.resident_deflatable[server]:
            # Reinflate: with the pressure gone the rebalance returns every
            # resident to full allocation.
            sim._rebalance(t, server)

    def _absorb_pressure(self, sim, t: float, server: int) -> None:
        """Fit the server's residents into its (reduced) capacity."""
        if sim._policy is not None:
            if sim.resident_deflatable[server]:
                sim._rebalance(t, server)
            if (sim.committed[server] - sim.reclaimed[server] > sim._cap_eps[server]).any():
                self.counts["capacity_overruns"] += 1
            return
        # Preemption baseline: no deflation headroom, so evict the lowest
        # priority deflatable residents until the remainder fits.
        prio = sim._vm_prio_list
        while (sim.committed[server] > sim._cap_eps[server]).any():
            defl = sim.resident_deflatable[server]
            if not defl:
                self.counts["capacity_overruns"] += 1
                break
            victim = min(defl, key=lambda v: (prio[v], v))
            sim._preempt(t, victim)
            self._accrue(
                "lost_core_intervals",
                max(0.0, float(sim.vm_end[victim]) - t) * float(sim.vm_caps[victim, 0]),
            )
