"""Declarative simulation scenarios.

A :class:`Scenario` is plain, picklable data describing one simulation run:
which workload to replay, which policy / admission / scorer components to
assemble, and how large the cluster is (either an explicit server count or
a target overcommitment level that the engine resolves against the
workload's peak demand).  Scenarios are immutable; the fluent ``with_*``
methods return modified copies, so a base scenario fans out into a sweep
grid naturally::

    base = Scenario().with_workload("azure", n_vms=500).with_policy("priority")
    grid = [base.with_overcommitment(oc) for oc in (0.0, 0.2, 0.4)]

Because a scenario is data, it round-trips through ``to_dict`` /
``from_dict`` (for configs checked into files) and crosses process
boundaries untouched (for :func:`repro.scenario.sweep.run_sweep`).
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.failures import FailureInjector, check_topology  # registers `failure` kind
from repro.registry import validate
from repro.simulator.cluster_sim import ClusterSimConfig
from repro.traces.schema import VMTraceSet


#: Scenario fields that hold a number, and whether they may be None.
_NUMBER_KEYS = {
    "n_servers": True,
    "overcommitment": True,
    "cores_per_server": False,
    "memory_per_server_mb": False,
    "n_partitions": False,
    "min_fraction": False,
}


@dataclass(frozen=True)
class Scenario:
    """One simulation run, declaratively.

    Exactly one of ``n_servers`` / ``overcommitment`` sizes the cluster, and
    exactly one of ``workload`` / ``traces`` supplies the VMs.  ``workload``
    is the declarative form — ``{"source": <registered workload name>,
    **params}`` — and is preferred; ``traces`` carries a pre-built
    :class:`VMTraceSet` for tests and ad-hoc studies.  ``failures``
    optionally names a registered failure model plus its parameters
    (:meth:`with_failures`); None replays on reliable servers.

    Every field's declarative form, its defaults, and the ``to_dict``
    schema (including how cache keys are derived from it) are documented
    in ``docs/scenario-schema.md``.
    """

    name: str = ""
    workload: dict | None = None
    traces: VMTraceSet | None = None
    #: Declarative failure spec — ``{"model": <registered failure name>,
    #: **model_params, "seed": ..., "response": ..., "restart_delay": ...,
    #: "warning_intervals": ..., "evacuation_budget": ...}`` — or None for
    #: a failure-free replay (the default; None elides from ``to_dict``,
    #: so failure-free cache keys are unchanged).
    failures: dict | None = None
    #: Cluster topology — ``{"racks": R}`` (contiguous near-equal split)
    #: or ``{"groups": [[0, 1], ...]}`` (explicit blast-radius groups) —
    #: consumed by topology-aware failure models (``correlated-spot``);
    #: None (the default, elided from ``to_dict``) means no declared
    #: topology, so pre-existing cache keys are unchanged.
    topology: dict | None = None
    policy: str = "proportional"
    n_servers: int | None = None
    overcommitment: float | None = None
    cores_per_server: float = 48.0
    memory_per_server_mb: float = 128 * 1024
    partitioned: bool = False
    n_partitions: int = 4
    min_fraction: float = 0.05
    admission: str = "deflation-aware"
    scorer: str = "cosine"
    collectors: tuple[str, ...] = ()
    engine: str = "cluster-sim"
    #: Optional warm starting point: a
    #: :class:`~repro.simulator.snapshot.SimSnapshot` restored into the
    #: built simulator before the replay, so the run resumes (or forks) at
    #: the snapshot's boundary instead of re-simulating the prefix.  Like
    #: ``traces``, a snapshot is live state, not declarative data — it
    #: pickles across sweep workers but never serializes to a dict.
    checkpoint: object | None = None

    def __post_init__(self) -> None:
        if self.workload is not None and self.traces is not None:
            raise SimulationError("give either a workload spec or explicit traces, not both")
        if self.workload is not None and "source" not in self.workload:
            raise SimulationError('workload spec needs a "source" key naming a registered workload')
        if self.n_servers is not None and self.overcommitment is not None:
            raise SimulationError("size the cluster by n_servers or overcommitment, not both")
        if self.overcommitment is not None and not 0 <= self.overcommitment < math.inf:
            raise SimulationError(
                f"overcommitment must be a finite number >= 0, got {self.overcommitment!r}"
            )
        object.__setattr__(self, "collectors", tuple(self.collectors))
        # Defensive deep copies: a caller-held spec must not mutate a frozen
        # scenario, including through nested payloads (e.g. a
        # trace-schedule's events list) — an aliased mutation would change
        # the scenario's cache key after its result was stored.
        if self.workload is not None:
            object.__setattr__(self, "workload", copy.deepcopy(dict(self.workload)))
        if self.failures is not None:
            if "model" not in self.failures:
                raise SimulationError(
                    'failure spec needs a "model" key naming a registered failure model'
                )
            object.__setattr__(self, "failures", copy.deepcopy(dict(self.failures)))
        if self.topology is not None:
            check_topology(self.topology)
            object.__setattr__(self, "topology", copy.deepcopy(dict(self.topology)))

    # -- fluent builder ----------------------------------------------------------

    def _replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def named(self, name: str) -> "Scenario":
        """Relabel the scenario (labels appear in tables and cache keys)."""
        return self._replace(name=name)

    def with_workload(self, source: str, **params) -> "Scenario":
        """Replay a registered workload source (e.g. ``"azure"``, seeded).

        ``params`` are forwarded to the workload factory — for ``azure``
        that means the :class:`~repro.traces.azure.AzureTraceConfig`
        fields (``n_vms``, ``seed``, ``horizon_intervals``, ...).  The
        spec is stored as plain data; synthesis happens at run time and
        is memoized per process.  Clears any explicit ``traces``.
        """
        validate("workload", source)
        return self._replace(workload={"source": source, **params}, traces=None)

    def with_traces(self, traces: VMTraceSet) -> "Scenario":
        """Replay a pre-built trace set (escape hatch for tests/studies).

        Explicit traces do not serialize: the scenario cannot ``to_dict``
        and transparently bypasses any :class:`SweepCache`.  Clears any
        declarative ``workload`` spec.
        """
        return self._replace(traces=traces, workload=None)

    def with_policy(self, policy: str) -> "Scenario":
        """Deflation policy by registered name, or ``"preemption"``.

        ``policy`` is any name registered under kind ``policy``
        (``proportional``, ``priority``, ``priority-eq3``,
        ``deterministic``, ...) or the literal ``"preemption"`` for the
        paper's kill-instead-of-deflate baseline.
        """
        if policy != "preemption":
            validate("policy", policy)
        return self._replace(policy=policy)

    def with_failures(self, model: str, **params) -> "Scenario":
        """Inject transient-server failures from a registered model.

        ``model`` names a ``failure``-kind component (``spot``,
        ``exponential-lifetimes``, ``weibull-lifetimes``,
        ``preemption-windows``, ``capacity-dips``, ``trace-schedule``).
        ``params`` mixes model knobs with injector knobs:

        * ``seed`` (int, default 0) — RNG seed for the schedule; part of
          the spec, so sweeps over seeds get distinct cache keys;
        * ``response`` — ``"evacuate"`` (deflation-first migration off the
          revoked server) or ``"kill"`` (kill-and-requeue);
        * ``restart_delay`` — intervals between a kill and the requeued
          restart (``response="kill"``); ``None`` disables requeueing;
        * ``warning_intervals`` — revocation warning window
          (``response="evacuate"``): revocations become timed drains with
          one budgeted evacuation tick per interval and a
          straggler-killing deadline; omit for instant evacuation;
        * ``evacuation_budget`` — per-tick migration ration during a
          drain: an int ``k`` (VMs per interval) or ``{"cores": c}``;
        * everything else is passed to the model constructor (e.g.
          ``rate=0.002`` for ``spot``, ``racks=4`` for
          ``correlated-spot``, ``arrival_rate=0.01`` for
          ``elastic-pool``).

        The spec is plain data: it serializes through :meth:`to_dict`,
        crosses process boundaries in parallel sweeps, and changes the
        :func:`~repro.scenario.cache.scenario_key`, so failure-injected
        results never collide with failure-free ones in a
        :class:`~repro.scenario.cache.SweepCache`.

        The whole spec is validated eagerly (model name, model parameters,
        and injector knobs), so a bad rate or response fails at declaration
        time, not mid-sweep.
        """
        spec = {"model": model, **params}
        FailureInjector.from_spec(spec)  # eager validation; instance discarded
        return self._replace(failures=spec)

    def without_failures(self) -> "Scenario":
        """Drop the failure spec (back to a failure-free replay)."""
        return self._replace(failures=None)

    def with_topology(
        self,
        racks: int | None = None,
        groups: "list[list[int]] | None" = None,
    ) -> "Scenario":
        """Declare the cluster's blast-radius topology.

        Exactly one of ``racks`` / ``groups``: ``racks=R`` splits the
        resolved cluster contiguously into ``R`` near-equal groups;
        ``groups=[[0, 1], [4]]`` lists explicit server groups (servers not
        listed form singleton groups).  Topology-aware failure models
        (``correlated-spot``) revoke whole groups at once; models without
        topology awareness ignore it.  The spec is plain data — it rides
        through ``to_dict`` and changes the sweep-cache key — and is
        resolved against the actual server count at run time.
        """
        if (racks is None) == (groups is None):
            raise SimulationError("give exactly one of racks or groups")
        if racks is not None:
            spec: dict = {"racks": int(racks)}
        else:
            spec = {"groups": [[int(s) for s in group] for group in groups]}
        check_topology(spec)
        return self._replace(topology=spec)

    def without_topology(self) -> "Scenario":
        """Drop the topology declaration."""
        return self._replace(topology=None)

    def with_servers(self, n_servers: int) -> "Scenario":
        """Fix the cluster size explicitly (clears any OC target)."""
        return self._replace(n_servers=int(n_servers), overcommitment=None)

    def with_overcommitment(self, overcommitment: float) -> "Scenario":
        """Size the cluster for a target peak overcommitment (paper method).

        The engine finds the minimum cluster fitting the trace's peak
        committed load, then shrinks it by ``1 + overcommitment``; 0.0
        means "just fits the peak".  Clears any explicit ``n_servers``.
        """
        return self._replace(overcommitment=float(overcommitment), n_servers=None)

    def with_server_shape(self, cores: float, memory_mb: float) -> "Scenario":
        """Set the homogeneous per-server capacity (default 48 cores, 128 GB)."""
        return self._replace(cores_per_server=float(cores), memory_per_server_mb=float(memory_mb))

    def with_partitions(self, n_partitions: int = 4) -> "Scenario":
        """Enable priority-pool partitioning (Section 5.2.1).

        Servers are split into ``n_partitions`` deflatable pools (one per
        priority level) plus an on-demand pool, sized by each class's
        committed-capacity share of the trace.
        """
        return self._replace(partitioned=True, n_partitions=int(n_partitions))

    def with_min_fraction(self, min_fraction: float) -> "Scenario":
        """Set the QoS floor (Eq. 2): no VM deflates below this fraction."""
        return self._replace(min_fraction=float(min_fraction))

    def with_admission(self, admission: str) -> "Scenario":
        """Admission controller by registered name (kind ``admission``)."""
        validate("admission", admission)
        return self._replace(admission=admission)

    def with_scorer(self, scorer: str) -> "Scenario":
        """Placement scorer by registered name (kind ``scorer``)."""
        validate("scorer", scorer)
        return self._replace(scorer=scorer)

    def with_collectors(self, *collectors: str) -> "Scenario":
        """Attach metrics collectors by registered name (kind ``metrics``).

        Each collector's ``finalize`` payload lands in the result's
        ``collected`` dict under the collector's name.  Replaces (does not
        extend) the current collector tuple.
        """
        for name in collectors:
            validate("metrics", name)
        return self._replace(collectors=tuple(collectors))

    def with_engine(self, engine: str) -> "Scenario":
        """Execution backend by registered name (kind ``engine``)."""
        validate("engine", engine)
        return self._replace(engine=engine)

    def with_checkpoint(self, snapshot) -> "Scenario":
        """Resume (or fork) the replay from a simulator snapshot.

        ``snapshot`` is a :class:`~repro.simulator.snapshot.SimSnapshot`
        taken by :meth:`ClusterSimulator.snapshot` on a simulator built
        from a compatible scenario: same workload, sizing, policy, and
        component fields.  Only the what-if axes may differ — ``name``,
        ``failures``, ``topology`` — and then only when the snapshot's
        prefix is failure-pristine (:func:`~repro.scenario.sweep.fork_sweep`
        validates the boundary up front; the restore itself re-checks).
        The engine restores the snapshot into the built simulator before
        replaying, so the prefix is never re-simulated and the result is
        bit-identical to a cold run of the same scenario.
        """
        from repro.simulator.snapshot import SimSnapshot

        if not isinstance(snapshot, SimSnapshot):
            raise SimulationError(
                f"with_checkpoint needs a SimSnapshot, got {type(snapshot).__name__}"
            )
        return self._replace(checkpoint=snapshot)

    def without_checkpoint(self) -> "Scenario":
        """Drop the checkpoint (back to a cold replay from t=0)."""
        return self._replace(checkpoint=None)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (defaults elided; ``traces`` cannot be serialized)."""
        if self.traces is not None:
            raise SimulationError("scenarios with explicit traces do not serialize to dicts")
        if self.checkpoint is not None:
            raise SimulationError(
                "scenarios with a checkpoint do not serialize to dicts; "
                "drop it with without_checkpoint() first"
            )
        out: dict = {}
        for f in dataclasses.fields(self):
            if f.name == "traces":
                continue
            value = getattr(self, f.name)
            default = f.default if f.default is not dataclasses.MISSING else None
            if value != default:
                if f.name == "collectors":
                    value = list(value)
                elif f.name in ("workload", "failures", "topology"):
                    # Never alias internal state out, nested payloads included.
                    value = copy.deepcopy(dict(value))
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "Scenario":
        """Build a scenario from a plain dict, rejecting unknown keys.

        A value of the wrong type raises :class:`SimulationError` naming
        its key.
        """
        if not isinstance(spec, Mapping):
            raise SimulationError(f"a scenario spec is a dict, got {type(spec).__name__}")
        known = {f.name for f in dataclasses.fields(cls)} - {"traces", "checkpoint"}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise SimulationError(f"unknown scenario keys {unknown}; valid keys: {sorted(known)}")
        kwargs = dict(spec)
        collectors = kwargs.get("collectors", ())
        if not isinstance(collectors, (list, tuple)):
            raise SimulationError(
                f"scenario key 'collectors' must be a list of names, got {collectors!r}"
            )
        kwargs["collectors"] = tuple(collectors)
        for key in ("workload", "failures", "topology"):
            value = kwargs.get(key)
            if value is not None:
                if not isinstance(value, Mapping):
                    raise SimulationError(f"scenario key {key!r} must be a dict, got {value!r}")
                kwargs[key] = dict(value)
        for key, nullable in _NUMBER_KEYS.items():
            value = kwargs.get(key)
            if key not in kwargs or (value is None and nullable):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise SimulationError(f"scenario key {key!r} must be a number, got {value!r}")
        return cls(**kwargs)

    # -- execution glue ----------------------------------------------------------

    def sim_config(self, n_servers: int) -> ClusterSimConfig:
        """The cluster-simulator config for a resolved server count."""
        return ClusterSimConfig(
            n_servers=n_servers,
            cores_per_server=self.cores_per_server,
            memory_per_server_mb=self.memory_per_server_mb,
            policy=self.policy,
            partitioned=self.partitioned,
            n_partitions=self.n_partitions,
            min_fraction=self.min_fraction,
            admission=self.admission,
            scorer=self.scorer,
            collectors=self.collectors,
        )

    def run(self, engine: str | None = None):
        """Run this scenario; returns a :class:`ScenarioResult`."""
        from repro.scenario.sweep import run_scenario

        target = self if engine is None else self.with_engine(engine)
        return run_scenario(target)

    def describe(self) -> str:
        size = (
            f"{self.n_servers} servers"
            if self.n_servers is not None
            else f"OC target {self.overcommitment:.0%}"
            if self.overcommitment is not None
            else "unsized"
        )
        source = (
            self.workload.get("source") if self.workload else
            "explicit traces" if self.traces is not None else "no workload"
        )
        label = f"{self.name}: " if self.name else ""
        fail = f" | failures={self.failures['model']}" if self.failures else ""
        warm = f" | checkpoint@t={self.checkpoint.at:g}" if self.checkpoint is not None else ""
        return f"{label}{source} | policy={self.policy} | {size}{fail}{warm}"
