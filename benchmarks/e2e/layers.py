"""Outside-in layer spans over ``repro``, and the per-layer metrics.

:func:`traced` patches public entry points of each layer with span
wrappers for the duration of a ``with`` block and restores them on exit;
no file under ``src/`` knows it is being measured.  A function imported
by name into another module is patched in every module that calls it.
Layer names are the ``repro`` subpackage names.

:data:`PER_LAYER` declares every per-layer metric with its unit and the
end-to-end metric and workload it should move; :func:`layer_metrics`
computes them from recorded spans.  Two pieces of work have no public
entry point and stay inside ``simulator.loop_self_s``: ``_place``'s
fleet-wide availability math and the per-VM metric-terms pass.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from collections import defaultdict

from spans import SpanRecorder, self_times

#: name -> (unit, better, the end-to-end metric and workloads it should
#: move).  Counts are per setup plus pass, so they repeat exactly for one
#: seed.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "traces.synthesize_s": ("s", "lower", "setup_s on flat-50k, sharded-50k, churn-20k; wall_s on grid-5k"),
    "traces.class_arrays_s": ("s", "lower", "setup_s on flat-50k, sharded-50k, churn-20k; wall_s on grid-5k"),
    "traces.vms": ("count", "higher", "setup_s on flat-50k, sharded-50k, churn-20k; wall_s on grid-5k"),
    "scenario.size_s": ("s", "lower", "wall_s on grid-5k"),
    "scenario.build_s": ("s", "lower", "wall_s on grid-5k"),
    "scenario.cache_s": ("s", "lower", "wall_s on grid-5k"),
    "scenario.cache_misses": ("count", "lower", "wall_s on grid-5k"),
    "runtime.map_s": ("s", "lower", "wall_s on grid-5k, sharded-50k"),
    "runtime.task_s": ("s", "lower", "wall_s on grid-5k, sharded-50k"),
    "runtime.tasks": ("count", "higher", "wall_s on grid-5k, sharded-50k"),
    "runtime.attempts": ("count", "lower", "wall_s on grid-5k, sharded-50k"),
    "runtime.busy_frac": ("ratio", "higher", "wall_s on grid-5k, sharded-50k"),
    "runtime.overhead_s": ("s", "lower", "wall_s on grid-5k, sharded-50k"),
    "simulator.run_s": ("s", "lower", "events_per_s on flat-50k; much less on grid-5k"),
    "simulator.loop_self_s": ("s", "lower", "events_per_s on flat-50k; much less on grid-5k"),
    "simulator.loop_self_us_per_event": ("us", "lower", "events_per_s on flat-50k; much less on grid-5k"),
    "simulator.events": ("count", "higher", "events_per_s on flat-50k; much less on grid-5k"),
    "components.score_s": ("s", "lower", "events_per_s on flat-50k"),
    "components.score_calls": ("count", "lower", "events_per_s on flat-50k"),
    "components.feasible_s": ("s", "lower", "events_per_s on flat-50k"),
    "components.feasible_calls": ("count", "lower", "events_per_s on flat-50k"),
    "core.plan_build_s": ("s", "lower", "events_per_s on flat-50k, churn-20k"),
    "core.plans_built": ("count", "lower", "events_per_s on flat-50k, churn-20k"),
    "core.solve_s": ("s", "lower", "events_per_s on flat-50k, churn-20k"),
    "core.solves": ("count", "lower", "events_per_s on flat-50k, churn-20k"),
    "core.plan_reuse": ("ratio", "higher", "events_per_s on flat-50k, churn-20k"),
    "pricing.reduce_terms_s": ("s", "lower", "wall_s on every workload (small)"),
    "failures.schedule_s": ("s", "lower", "events_per_s on churn-20k"),
    "failures.drive_s": ("s", "lower", "events_per_s on churn-20k"),
    "failures.drive_self_s": ("s", "lower", "events_per_s on churn-20k"),
    "failures.revocations": ("count", "lower", "events_per_s on churn-20k"),
    "failures.evacuated": ("count", "higher", "events_per_s on churn-20k"),
    "failures.killed": ("count", "lower", "events_per_s on churn-20k"),
    "sharded.plan_s": ("s", "lower", "wall_s on sharded-50k"),
    "sharded.merge_s": ("s", "lower", "wall_s on sharded-50k"),
    "trace.overhead_s": ("s", "lower", "none: the cost of these spans"),
}


# -- instrumentation -----------------------------------------------------------------


def _vms(args, kwargs, result):
    return {"vms": len(result)}


def _events(args, kwargs, result):
    return {"events": 2 * len(args[0].traces)}


def _cache_get(args, kwargs, result):
    return {"miss": int(result is None)}


def _failure_summary(args, kwargs, result):
    summary = args[0].summary()
    return {
        "revocations": summary["revocations"],
        "evacuated": summary["evacuated"],
        "killed": summary["killed"] + summary["deadline_killed"],
    }


def _map_attrs(args, kwargs, outcomes):
    items = args[1]
    workers = kwargs.get("workers") or 1
    parallel = workers > 1 and not multiprocessing.current_process().daemon
    return {
        "tasks": len(items),
        "attempts": sum(o.attempts for o in outcomes),
        "workers": min(workers, len(items)) if parallel else 1,
    }


def _map_wrapper(rec: SpanRecorder, original):
    """``supervised_map`` with a span per map and per task.

    The task closure travels to workers by fork inheritance, so the map
    is forced onto the fork start method (results never depend on it).
    """
    timed_map = rec.wrap(original, "runtime.map", _map_attrs)

    def supervised_map(fn, items, **kwargs):
        timed_task = rec.wrap(fn, "runtime.task")

        def task(item):
            rec.adopt()
            try:
                return timed_task(item)
            finally:
                rec.spill()

        kwargs["start_method"] = "fork"
        try:
            return timed_map(task, list(items), **kwargs)
        finally:
            rec.absorb()

    return supervised_map


def _plan_wrapper(rec: SpanRecorder, original):
    build = rec.wrap(original, "core.plan_build")

    def reclaim_plan(*args, **kwargs):
        return rec.wrap(build(*args, **kwargs), "core.solve")

    return reclaim_plan


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Patch every layer boundary with spans into ``rec``; restore on exit."""
    from repro.core import deflation
    from repro.failures.injector import FailureInjector
    from repro.scenario import cache, engine, sweep
    from repro.simulator import cluster_sim, components, sharded
    from repro.traces import azure

    patches = [
        (azure, "synthesize_azure_trace", lambda f: rec.wrap(f, "traces.synthesize", _vms)),
        *[
            (mod, "vm_class_arrays", lambda f: rec.wrap(f, "traces.class_arrays"))
            for mod in (cluster_sim, sharded)
        ],
        *[
            (mod, "servers_for_overcommitment", lambda f: rec.wrap(f, "scenario.size"))
            for mod in (engine, sharded)
        ],
        (engine.ClusterSimEngine, "build", lambda f: rec.wrap(f, "scenario.build")),
        (cache.SweepCache, "get", lambda f: rec.wrap(f, "scenario.cache", _cache_get)),
        (cache.SweepCache, "put", lambda f: rec.wrap(f, "scenario.cache")),
        *[
            (mod, "supervised_map", lambda f: _map_wrapper(rec, f))
            for mod in (sweep, sharded)
        ],
        (cluster_sim.ClusterSimulator, "run", lambda f: rec.wrap(f, "simulator.run", _events)),
        (sharded._ShardSimulator, "run", lambda f: rec.wrap(f, "simulator.run", _events)),
        (components.CosineScorer, "score", lambda f: rec.wrap(f, "components.score")),
        (
            components.DeflationAwareAdmission,
            "feasible",
            lambda f: rec.wrap(f, "components.feasible"),
        ),
        (deflation.DeflationPolicy, "reclaim_plan", lambda f: _plan_wrapper(rec, f)),
        (deflation.PriorityPolicy, "reclaim_plan", lambda f: _plan_wrapper(rec, f)),
        *[
            (mod, "reduce_vm_terms", lambda f: rec.wrap(f, "pricing.reduce_terms"))
            for mod in (cluster_sim, sharded)
        ],
        (FailureInjector, "schedule", lambda f: rec.wrap(f, "failures.schedule")),
        (FailureInjector, "drive", lambda f: rec.wrap(f, "failures.drive", _failure_summary)),
        (sharded, "plan_shards", lambda f: rec.wrap(f, "sharded.plan")),
        (sharded.ShardedEngine, "run", lambda f: rec.wrap(f, "sharded.run")),
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(rec: SpanRecorder, weights: dict[str, float], overhead_s: float) -> dict:
    """Every :data:`PER_LAYER` metric from ``rec``'s spans.

    ``weights`` maps a run-id prefix (``"setup"``, ``"pass"``) to the
    factor its spans count with — one over the number of traced setups or
    passes — so each metric is the cost of one setup plus one pass.
    """
    spans = rec.spans
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    worker_time = 0.0
    for span in spans:
        w = weights[span.run.split("-")[0]]
        dur[span.name] += w * span.duration
        calls[span.name] += w
        own[span.name] += w * selfs[span.id]
        for key, value in (span.attrs or {}).items():
            attrs[f"{span.name}.{key}"] += w * value
        if span.name == "runtime.map":
            worker_time += w * span.attrs["workers"] * span.duration

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    busy = ratio(dur["runtime.task"], worker_time)
    events = attrs["simulator.run.events"]
    return {
        "traces.synthesize_s": dur["traces.synthesize"],
        "traces.class_arrays_s": dur["traces.class_arrays"],
        "traces.vms": attrs["traces.synthesize.vms"],
        "scenario.size_s": dur["scenario.size"],
        "scenario.build_s": dur["scenario.build"],
        "scenario.cache_s": dur["scenario.cache"],
        "scenario.cache_misses": attrs["scenario.cache.miss"],
        "runtime.map_s": dur["runtime.map"],
        "runtime.task_s": dur["runtime.task"],
        "runtime.tasks": attrs["runtime.map.tasks"],
        "runtime.attempts": attrs["runtime.map.attempts"],
        "runtime.busy_frac": busy,
        "runtime.overhead_s": dur["runtime.map"] * (1.0 - busy),
        "simulator.run_s": dur["simulator.run"],
        "simulator.loop_self_s": own["simulator.run"],
        "simulator.loop_self_us_per_event": 1e6 * ratio(own["simulator.run"], events),
        "simulator.events": events,
        "components.score_s": dur["components.score"],
        "components.score_calls": calls["components.score"],
        "components.feasible_s": dur["components.feasible"],
        "components.feasible_calls": calls["components.feasible"],
        "core.plan_build_s": dur["core.plan_build"],
        "core.plans_built": calls["core.plan_build"],
        "core.solve_s": dur["core.solve"],
        "core.solves": calls["core.solve"],
        "core.plan_reuse": ratio(calls["core.solve"], calls["core.plan_build"]),
        "pricing.reduce_terms_s": dur["pricing.reduce_terms"],
        "failures.schedule_s": dur["failures.schedule"],
        "failures.drive_s": dur["failures.drive"],
        "failures.drive_self_s": own["failures.drive"],
        "failures.revocations": attrs["failures.drive.revocations"],
        "failures.evacuated": attrs["failures.drive.evacuated"],
        "failures.killed": attrs["failures.drive.killed"],
        "sharded.plan_s": dur["sharded.plan"],
        "sharded.merge_s": own["sharded.run"],
        "trace.overhead_s": overhead_s,
    }


def nesting_violations(rec: SpanRecorder) -> list[str]:
    """Spans whose same-process children sum to more than the span itself."""
    by_id = {span.id: span for span in rec.spans}
    child_sum: dict[int, float] = defaultdict(float)
    for span in rec.spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.id // 10**9 == span.id // 10**9:
            child_sum[parent.id] += span.duration
    return [
        f"{by_id[pid].name}: children {total:.6f}s > span {by_id[pid].duration:.6f}s"
        for pid, total in child_sum.items()
        if total > by_id[pid].duration + 1e-9
    ]
