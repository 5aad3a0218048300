"""Determinism rules: no wall-clock, no unordered iteration, in the core.

Every headline guarantee in this repo — serial == parallel == sharded,
warm cache == cold cache, golden bit-equivalence — reduces to one
discipline: results are a pure function of the scenario.  The RNG half
of that discipline (seeded, passed generators; no module-level draws) is
owned by the whole-program ``rng-taint`` rule.  These per-file rules
reject the two other ways it historically breaks:

* reading the wall clock (``time.time()``, ``datetime.now()``) inside the
  simulation core (``repro/simulator``, ``repro/failures``,
  ``repro/scenario``), where it could leak into results;
* iterating an unordered ``set`` in the simulation core, where iteration
  order (hash-seed dependent for str keys) could order events.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ImportMap, LintContext, LintRule, ModuleSource, in_sim_path
from repro.registry import register

_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


@register("lint", "no-wallclock")
class NoWallclockRule(LintRule):
    """No wall-clock reads inside the simulation core."""

    name = "no-wallclock"
    scope = "file"
    description = (
        "repro/simulator, repro/failures and repro/scenario must not read "
        "the wall clock (time.time(), datetime.now(), perf counters): "
        "results must be a pure function of the scenario"
    )

    def check(self, module: ModuleSource, ctx: LintContext):
        if not in_sim_path(module.rel):
            return
        tree = module.tree
        if tree is None:
            return
        imports = ImportMap(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # time.<fn>() through a module alias, or `from time import time`.
            if isinstance(func, ast.Attribute):
                value = func.value
                if (
                    isinstance(value, ast.Name)
                    and value.id in imports.time_aliases
                    and func.attr in _TIME_FNS
                ):
                    yield module.finding(
                        self.name,
                        node,
                        f"wall-clock read time.{func.attr}() inside the simulation core",
                    )
                    continue
                # datetime.datetime.now() / datetime.date.today() chains,
                # and datetime.now() on an imported class.
                if func.attr in _DATETIME_FNS:
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr in ("datetime", "date")
                        and isinstance(value.value, ast.Name)
                        and value.value.id in imports.datetime_mod_aliases
                    ) or (
                        isinstance(value, ast.Name)
                        and value.id in imports.datetime_cls_aliases
                    ):
                        yield module.finding(
                            self.name,
                            node,
                            f"wall-clock read datetime .{func.attr}() inside the "
                            "simulation core",
                        )
                    continue
            elif isinstance(func, ast.Name) and func.id in imports.time_funcs:
                canonical = imports.time_funcs[func.id]
                if canonical.rpartition(".")[2] in _TIME_FNS:
                    yield module.finding(
                        self.name,
                        node,
                        f"wall-clock read {canonical}() inside the simulation core",
                    )


def _is_set_expr(node: ast.expr) -> bool:
    """Set displays, set comprehensions, and bare ``set(...)`` calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register("lint", "no-set-iteration")
class NoSetIterationRule(LintRule):
    """No order-sensitive iteration over unordered sets in the sim core."""

    name = "no-set-iteration"
    scope = "file"
    description = (
        "iterating a set in repro/simulator, repro/failures or "
        "repro/scenario orders events by hash-dependent set order; wrap "
        "in sorted(...) to make the order part of the contract"
    )

    def check(self, module: ModuleSource, ctx: LintContext):
        if not in_sim_path(module.rel):
            return
        tree = module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            iter_expr: ast.expr | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield module.finding(
                            self.name,
                            gen.iter,
                            "comprehension iterates an unordered set — wrap in sorted(...)",
                        )
                continue
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate")
                and node.args
                and _is_set_expr(node.args[0])
            ):
                yield module.finding(
                    self.name,
                    node,
                    f"{node.func.id}() over an unordered set fixes an arbitrary "
                    "order — wrap the set in sorted(...)",
                )
                continue
            if iter_expr is not None and _is_set_expr(iter_expr):
                yield module.finding(
                    self.name,
                    iter_expr,
                    "for-loop iterates an unordered set — wrap in sorted(...)",
                )
