"""Versioned, deterministic simulator checkpoints (snapshot/restore/fork).

A :class:`SimSnapshot` freezes a :class:`~repro.simulator.cluster_sim.
ClusterSimulator` at an event boundary — everything the replay needs to
continue bit-identically: the per-VM and per-server arrays, the
committed-cores scalar, the allocation-history log, collector state (via
the ``snapshot()/restore()`` hooks on
:class:`~repro.simulator.components.MetricsCollector`), the VM event
cursor, and the injector's accruals plus its remaining failure heap.
``save → restore → run`` equals an uninterrupted run bit-for-bit
(``tests/simulator/test_snapshot_roundtrip.py`` pins this across every
policy and failure regime).

The VM cursor always resumes verbatim; the failure side comes in two
flavours, decided per injector state:

* **resume** — the target drives the *same* failure stream the snapshot was
  taken under (same spec + topology, or both failure-free): the stored
  failure heap is reinstated verbatim.
* **fork** — the target carries a *different* failure spec, or none
  (what-if branching, :func:`~repro.scenario.sweep.fork_sweep`): only legal
  when the snapshot prefix is *pristine* (saw no failure activity), so the
  prefix is shared by every regime.  The stored heap is dropped and the
  target re-schedules its own failures, if any; schedules with events
  before the boundary are rejected rather than silently dropped.

Pure derived caches (per-server gathers, the sorted history view, scorer
normalization rows) are deliberately *not* stored: restore resets them and
they rebuild to the same values, which keeps the snapshot small and the
format honest about what is state versus what is cache.

Snapshots pickle (multiprocessing fork *and* spawn), and
:meth:`SimSnapshot.fingerprint` gives a canonical sha256 over the exact
bit patterns — the key :func:`~repro.scenario.cache.scenario_key` mixes in
for checkpoint-carrying scenarios.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import SimulationError
from repro.failures.injector import FailureInjector
from repro.simulator.cluster_sim import VMOutcome, vm_pool_assignment

#: Bump on any layout change; a snapshot from another version is refused,
#: never misread.  v2: the stream is the VM cursor alone (the peak moved
#: into ``state``), and the injector heap holds failure events only.
SNAPSHOT_VERSION = 2

#: Array fields captured/restored verbatim (attribute name, snapshot key).
_VM_ARRAYS = (
    "vm_caps",
    "vm_prio",
    "vm_deflatable",
    "vm_floor",
    "vm_server",
    "vm_placed",
    "vm_rejected",
    "vm_preempted",
    "vm_reclaim_failure",
    "vm_start",
    "vm_end",
    "vm_lifetime",
)
_SERVER_ARRAYS = ("server_cap", "committed", "reclaimed", "defl_cap", "defl_floor", "server_pool")

#: VMOutcome flags are stored separately from the mirror arrays: they can
#: legitimately diverge (an on-demand evacuation victim is ``preempted`` in
#: its outcome but not in ``vm_preempted``, which only counts deflatable
#: failures), so neither can be rebuilt from the other.
_OUTCOME_FIELDS = ("placed", "rejected", "preempted", "reclaim_failure")


@dataclass(frozen=True)
class SimSnapshot:
    """One simulator's full state at the event boundary ``at``.

    Produced by :meth:`ClusterSimulator.snapshot` (via :func:`capture`),
    consumed by :meth:`ClusterSimulator.restore` (via :func:`restore_into`)
    and :meth:`Scenario.with_checkpoint`.  Treat as opaque and immutable.
    """

    version: int
    #: The ``run_until`` boundary: every event strictly before it has been
    #: processed, none at or after it.
    at: float
    config: object  # ClusterSimConfig (frozen dataclass; compared with ==)
    n_traces: int
    state: dict
    stream: dict
    injector: dict | None
    collectors: tuple
    #: Reserved: no live RNG exists during a replay today (failure models
    #: expand their whole schedule up front), but the slot keeps the format
    #: stable if one ever does.
    rng_state: object = None

    def fingerprint(self) -> str:
        """Canonical sha256 over the snapshot's exact bit patterns."""
        h = hashlib.sha256()
        _hash_into(h, ("repro-sim-snapshot", self.version, self.at, self.n_traces))
        _hash_into(h, asdict(self.config))
        _hash_into(h, self.state)
        _hash_into(h, self.stream)
        _hash_into(h, self.injector)
        _hash_into(h, self.collectors)
        _hash_into(h, self.rng_state)
        return h.hexdigest()


def _hash_into(h, obj) -> None:
    """Feed one payload into a hash with explicit type/length framing.

    Floats hash by their float64 bit pattern and arrays by dtype + shape +
    raw bytes, so two snapshots fingerprint equal iff every stored value is
    bit-identical — the same discipline the equivalence suites assert.
    """
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F")
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, str):
        h.update(b"S")
        h.update(obj.encode())
        h.update(b"\x00")
    elif isinstance(obj, np.ndarray):
        h.update(b"A")
        h.update(str(obj.dtype).encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d;" % len(obj))
        for item in obj:
            _hash_into(h, item)
    elif isinstance(obj, dict):
        h.update(b"D%d;" % len(obj))
        for key in sorted(obj, key=repr):
            _hash_into(h, key)
            _hash_into(h, obj[key])
    else:
        raise SimulationError(
            f"snapshot fingerprint cannot hash a {type(obj).__name__} payload"
        )


# -- capture ---------------------------------------------------------------------------


def capture(sim) -> SimSnapshot:
    """Freeze ``sim`` at its current :meth:`run_until` boundary."""
    stream = sim._stream
    if stream is None:
        raise SimulationError(
            "snapshot requires an open event stream: call run_until(t) first"
        )
    state: dict = {}
    for name in _VM_ARRAYS:
        state[name] = getattr(sim, name).copy()
    for name in _SERVER_ARRAYS:
        state[name] = getattr(sim, name).copy()
    state["last_frac"] = sim._last_frac.copy()
    n = len(sim.traces)
    state["out_priority"] = np.array([o.priority for o in sim.outcomes], dtype=np.float64)
    state["out_cores"] = np.array([o.cores for o in sim.outcomes], dtype=np.float64)
    state["out_deflatable"] = np.array([o.deflatable for o in sim.outcomes], dtype=bool)
    state["out_end_interval"] = np.array(
        [o.end_interval for o in sim.outcomes], dtype=np.float64
    )
    for fld in _OUTCOME_FIELDS:
        state[f"out_{fld}"] = np.array([getattr(o, fld) for o in sim.outcomes], dtype=bool)
    state["residents"] = tuple(tuple(d) for d in sim.residents)
    state["resident_deflatable"] = tuple(tuple(d) for d in sim.resident_deflatable)
    alive = sim._server_alive
    state["server_alive"] = None if alive is None else alive.copy()
    state["draining_servers"] = int(sim._draining_servers)
    state["committed_cores"] = float(sim._committed_cores)
    state["peak_committed"] = float(sim._peak_committed)
    state["n_initial_servers"] = int(sim._n_initial_servers)
    nh = sim._hist_n
    state["hist_vm"] = sim._hist_vm[:nh].copy()
    state["hist_t"] = sim._hist_t[:nh].copy()
    state["hist_f"] = sim._hist_f[:nh].copy()
    if sim.config.partitioned:
        state["pool_members"] = tuple(m.copy() for m in sim._pool_members)
    else:
        state["pool_members"] = None
    final = sim._final_terms
    state["final_terms"] = (
        None if final is None else {k: v.copy() for k, v in final.items()}
    )

    injector_state = None if sim._injector is None else sim._injector.state_snapshot()

    collectors = []
    for c in sim._collectors:
        if not c.snapshottable:
            raise SimulationError(
                f"metrics collector {c.name!r} declares snapshottable = False; "
                "run this scenario without checkpoints"
            )
        collectors.append((c.name, c.snapshot()))

    return SimSnapshot(
        version=SNAPSHOT_VERSION,
        at=float(stream["at"]),
        config=sim.config,
        n_traces=n,
        state=state,
        stream={"cursor": int(stream["cursor"])},
        injector=injector_state,
        collectors=tuple(collectors),
    )


# -- restore ---------------------------------------------------------------------------


def restore_into(sim, snap: SimSnapshot) -> None:
    """Reinstate ``snap`` into a freshly built ``sim`` (same config/trace).

    After this the simulator behaves exactly as if it had processed the
    prefix itself: ``run()`` finishes the replay, ``run_until`` keeps
    stepping, ``snapshot()`` re-freezes.
    """
    if not isinstance(snap, SimSnapshot):
        raise SimulationError(f"not a SimSnapshot: {type(snap).__name__}")
    if snap.version != SNAPSHOT_VERSION:
        raise SimulationError(
            f"snapshot format v{snap.version} is not supported (expected v{SNAPSHOT_VERSION})"
        )
    if sim._stream is not None:
        raise SimulationError("restore requires a fresh simulator (its stream is already open)")
    if sim.config != snap.config:
        raise SimulationError(
            "snapshot/simulator config mismatch: a checkpoint only restores into "
            "the exact configuration it was taken under"
        )
    n = len(sim.traces)
    if n != snap.n_traces:
        raise SimulationError(
            f"snapshot was taken over {snap.n_traces} VMs but this trace set has {n}"
        )

    st = snap.state
    for name in _VM_ARRAYS:
        setattr(sim, name, st[name].copy())
    for name in _SERVER_ARRAYS:
        setattr(sim, name, st[name].copy())
    sim._last_frac = st["last_frac"].copy()
    sim.outcomes = [
        VMOutcome(
            vm_index=i,
            deflatable=bool(st["out_deflatable"][i]),
            priority=float(st["out_priority"][i]),
            cores=float(st["out_cores"][i]),
            placed=bool(st["out_placed"][i]),
            rejected=bool(st["out_rejected"][i]),
            preempted=bool(st["out_preempted"][i]),
            reclaim_failure=bool(st["out_reclaim_failure"][i]),
            end_interval=float(st["out_end_interval"][i]),
        )
        for i in range(n)
    ]
    s = len(st["residents"])
    sim.residents = [dict.fromkeys(r) for r in st["residents"]]
    sim.resident_deflatable = [dict.fromkeys(r) for r in st["resident_deflatable"]]
    alive = st["server_alive"]
    sim._server_alive = None if alive is None else alive.copy()
    sim._draining_servers = int(st["draining_servers"])
    sim._committed_cores = float(st["committed_cores"])
    sim._peak_committed = float(st["peak_committed"])
    sim._n_initial_servers = int(st["n_initial_servers"])
    sim._preempt_log = None
    # ``_cap_eps`` is an invariant of ``server_cap`` (+1e-9 everywhere:
    # nominal rows, dip-scaled rows, and revoked rows where 0 + 1e-9
    # matches what ``_mark_revoked`` wrote), so recompute instead of store.
    sim._cap_eps = sim.server_cap + 1e-9
    sim._all_servers = np.arange(s)
    # Pure caches: reset, they rebuild bit-identically on demand.
    sim._srv_cache = [None] * s
    sim._srv_victims = [None] * s
    sim._hist_sorted = None
    nh = st["hist_vm"].size
    cap = max(4 * n, 64, nh)
    sim._hist_vm = np.empty(cap, dtype=np.int64)
    sim._hist_t = np.empty(cap, dtype=np.float64)
    sim._hist_f = np.empty(cap, dtype=np.float64)
    sim._hist_vm[:nh] = st["hist_vm"]
    sim._hist_t[:nh] = st["hist_t"]
    sim._hist_f[:nh] = st["hist_f"]
    sim._hist_n = nh
    final = st["final_terms"]
    sim._final_terms = None if final is None else {k: v.copy() for k, v in final.items()}
    cfg = sim.config
    if cfg.partitioned:
        sim._pool_members = [m.copy() for m in st["pool_members"]]

    # Derived per-VM caches, exactly as ``_refresh_derived`` builds them at
    # the top of a cold ``run()`` — except ``_demand_norm`` divides by the
    # *nominal* server shape rather than live row 0, which a revocation or
    # dip in the prefix may have zeroed or scaled.  A cold run computes it
    # from the pristine row before any failure event fires, so the nominal
    # shape is the bit-identical value.
    sim._vm_cores_list = sim.vm_caps[:, 0].tolist()
    sim._vm_mem_list = sim.vm_caps[:, 1].tolist()
    sim._vm_prio_list = sim.vm_prio.tolist()
    sim._demand_norm = sim.vm_caps / np.array([cfg.cores_per_server, cfg.memory_per_server_mb])
    sim._vm_caps_eps = sim.vm_caps - 1e-9
    if cfg.partitioned:
        sim._vm_pool = vm_pool_assignment(
            sim.vm_prio, sim.vm_deflatable, list(sim._pool_of_level)
        )

    # Collectors: positional restore against the configured set.
    names = tuple(c.name for c in sim._collectors)
    snap_names = tuple(name for name, _ in snap.collectors)
    if names != snap_names:
        raise SimulationError(
            f"snapshot collectors {snap_names!r} do not match configured {names!r}"
        )
    for collector, (_, payload) in zip(sim._collectors, snap.collectors):
        collector.restore(copy.deepcopy(payload))

    _restore_stream(sim, snap)


def _restore_stream(sim, snap: SimSnapshot) -> None:
    """Reinstate the event stream: the VM cursor, then resume or fork failures."""
    stream = sim._build_events()
    stream["cursor"] = int(snap.stream["cursor"])
    stream["at"] = snap.at
    injector, inj_state = sim._injector, snap.injector
    same_failures = (
        injector is not None
        and inj_state is not None
        and inj_state["spec"] is not None
        and inj_state["spec"] == injector.spec
        and inj_state["topology"] == injector.topology
    )
    if same_failures:
        injector.restore_state(inj_state)
    elif inj_state is not None and not FailureInjector.state_is_pristine(inj_state):
        raise SimulationError(
            "cannot fork this snapshot into a different failure spec (or none): "
            "its prefix already saw failure activity under the original spec "
            "(fork at an earlier boundary, or resume under the same spec)"
        )
    elif injector is not None:
        # Pristine prefix forked under a new schedule.
        injector.start(sim)
        early = sum(1 for e in injector._heap if e[0] < snap.at)
        if early:
            raise SimulationError(
                f"cannot fork at t={snap.at}: the target failure schedule has "
                f"{early} event(s) before the checkpoint boundary; fork earlier "
                "or align the schedule after the boundary"
            )
    sim._stream = stream

