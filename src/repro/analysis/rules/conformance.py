"""``hook-conformance``: registered components must match their protocols.

The engine dispatches collector hooks *by name* (``on_admit``,
``on_preempt``, …, ``finalize``, ``merge_shards``, ``snapshot`` /
``restore``), so a misspelled hook on a ``@register("metrics")`` class is
not an error at runtime — it is simply never called, and the collector
silently reports zeros.  The same shape applies to ``engine`` components
(must provide ``run``) and ``failure`` models (must provide ``events`` /
``events_with_topology``).  This rule resolves every registration to its
class definition through the
:class:`~repro.analysis.project.ProjectIndex` and checks, statically:

* **required methods** — present on the class or an indexed ancestor;
* **opt-out contracts** — a metrics collector implements ``merge_shards``
  (the sharded engine's exact per-shard fold, docs/engines.md) or
  declares ``mergeable = False``, and implements both ``snapshot`` and
  ``restore`` (checkpoint/resume's exact state round-trip) or declares
  ``snapshottable = False``.  The ``MetricsCollector`` base's raising
  defaults do not count; the class or any other indexed ancestor may
  supply the method or the opt-out;
* **unknown hooks** — an ``on_*`` method the base protocol does not
  define (never dispatched);
* **misspellings** — a method whose name is a near-miss of a protocol
  method (``merge_shard`` vs ``merge_shards``), reported as such;
* **arity** — an overriding method must accept the positional argument
  count the dispatcher calls the base method with.

When a protocol base class is not in the index (a partial lint over a
subtree, a single-file fixture), only the opt-out contracts are checked;
everything that needs the base is skipped rather than guessed.
"""

from __future__ import annotations

import ast
import difflib

from repro.analysis.core import LintContext, LintRule
from repro.analysis.project import ClassInfo, ProjectIndex, Registration
from repro.registry import register

RULE = "hook-conformance"

#: registration kind -> (protocol class name, preferred module prefix,
#: requirements).  A requirement is ``(methods, opt_out)``: with
#: ``opt_out`` None the methods may come from anywhere in the MRO, base
#: included; otherwise the base only supplies a raising default, so the
#: class or a non-base ancestor must define them or set ``opt_out = False``.
_PROTOCOLS = {
    "metrics": (
        "MetricsCollector",
        "repro.simulator",
        ((("merge_shards",), "mergeable"), (("snapshot", "restore"), "snapshottable")),
    ),
    "engine": ("Engine", "repro.scenario", ((("run",), None),)),
    "failure": ("FailureModel", "repro.failures", ((("events",), None),)),
}

#: Why each opt-out contract exists, for the finding message.
_OPT_OUT_REASONS = {
    "mergeable": "the sharded engine's merge discipline requires one or the other",
    "snapshottable": (
        "checkpoint/resume needs the exact state round-trip or an explicit opt-out"
    ),
}

_CLOSE_MATCH_CUTOFF = 0.8


def _positional_arity(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[int, int | None]:
    """(min, max) positional-argument counts; max None means ``*args``."""
    positional = len(fn.args.posonlyargs) + len(fn.args.args)
    minimum = positional - len(fn.args.defaults)
    maximum = None if fn.args.vararg is not None else positional
    return minimum, maximum


def _opted_out(lineage: list[ClassInfo], flag: str) -> bool:
    """True when the nearest class assigning ``flag`` sets it to False."""
    for cls in lineage:
        for stmt in cls.node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == flag for t in targets):
                return isinstance(value, ast.Constant) and value.value is False
    return False


def _protocol_methods(cls: ClassInfo) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    """The base class's public (dispatchable) method table."""
    return {
        name: node
        for name, node in cls.methods().items()
        if not name.startswith("_")
    }


@register("lint", "hook-conformance")
class HookConformanceRule(LintRule):
    """Collector/engine/failure registrations conform to their base protocol."""

    name = RULE
    scope = "repo"
    description = (
        "@register('metrics'/'engine'/'failure') classes must match their "
        "protocol base: no unknown or misspelled hook names (silently "
        "never dispatched), required methods present, overriding methods "
        "accept the dispatcher's positional arity"
    )

    def check_repo(self, ctx: LintContext):
        index: ProjectIndex = ctx.project
        bases: dict[str, ClassInfo | None] = {
            kind: index.class_named(cls_name, prefer=prefix)
            for kind, (cls_name, prefix, _) in _PROTOCOLS.items()
        }
        seen: set[tuple[str, str]] = set()
        for reg in index.registrations:
            if reg.kind not in _PROTOCOLS or reg.target is None:
                continue
            resolved = index.resolve(reg.target)
            if not isinstance(resolved, ClassInfo):
                continue
            key = (reg.kind, resolved.qualname)
            if key in seen:
                continue
            seen.add(key)
            base = bases[reg.kind]
            if base is not None and resolved.qualname == base.qualname:
                continue  # the protocol registering itself
            yield from self._check_class(index, reg, resolved, base)

    def _check_class(
        self,
        index: ProjectIndex,
        reg: Registration,
        cls: ClassInfo,
        base: ClassInfo | None,
    ):
        module = cls.module
        short = cls.qualname.rpartition(".")[2]
        lineage = [
            c for c in index.ancestors(cls) if base is None or c.qualname != base.qualname
        ]
        defined = {name for c in lineage for name in c.methods()}
        visible = index.mro_methods(cls)
        for methods, opt_out in _PROTOCOLS[reg.kind][2]:
            if opt_out is not None:
                missing = sorted(set(methods) - defined)
                if missing and not _opted_out(lineage, opt_out):
                    yield module.finding(
                        RULE,
                        cls.node,
                        f"{reg.kind} collector {short} is missing {'/'.join(missing)} "
                        f"and does not declare `{opt_out} = False` — "
                        f"{_OPT_OUT_REASONS[opt_out]}",
                    )
                continue
            for method in methods:
                if base is not None and method not in visible:
                    yield module.finding(
                        RULE,
                        cls.node,
                        f"{short} is registered as {reg.kind} {reg.name!r} but "
                        f"neither defines nor inherits required method {method}()",
                    )

        if base is None:
            return
        protocol = _protocol_methods(base)
        for name, node in sorted(cls.methods().items()):
            if name.startswith("_"):
                continue
            if name in protocol:
                base_min, base_max = _positional_arity(protocol[name])
                own_min, own_max = _positional_arity(node)
                call_arity = base_max if base_max is not None else base_min
                if own_min > call_arity or (own_max is not None and own_max < call_arity):
                    own = f"{own_min}" if own_min == own_max else f"{own_min}..{own_max or '*'}"
                    yield module.finding(
                        RULE,
                        node,
                        f"{name}() takes {own} positional args but the "
                        f"dispatcher calls the {base.qualname.rpartition('.')[2]} "
                        f"hook with {call_arity} — the override will raise "
                        "TypeError when dispatched",
                    )
                continue
            close = difflib.get_close_matches(
                name, sorted(protocol), n=1, cutoff=_CLOSE_MATCH_CUTOFF
            )
            if close:
                yield module.finding(
                    RULE,
                    node,
                    f"{name}() looks like a misspelling of protocol hook "
                    f"{close[0]}() — it will never be dispatched; rename it",
                )
            elif name.startswith("on_"):
                yield module.finding(
                    RULE,
                    node,
                    f"{name}() is not a hook the "
                    f"{base.qualname.rpartition('.')[2]} protocol dispatches — "
                    "it will never be called",
                )
