"""``rng-taint``: every random draw flows from the seeded, threaded rng.

The determinism contract (serial == parallel == sharded == resumed)
requires all randomness to come from a generator *seeded from scenario
data and threaded through call boundaries*.  This one rule owns that
invariant end to end, reporting each offending node once:

* **everywhere** (every indexed module, any path): module-level RNG
  state — ``np.random.<draw>()``, ``np.random.seed``, stdlib
  ``random.<fn>()`` other than a private ``random.Random(seed)`` — and an
  unseeded ``default_rng()``, an OS-entropy stream;
* **inside registered failure models** (any path): any executable
  ``np.random`` use except the ``Generator`` type.  Schedules are
  generated once from the flat seed and sliced per shard, so a model
  that seeds, draws from, or builds its own generator breaks serial ==
  sharded even with a "deterministic" seed;
* **in repro/{simulator,failures,scenario,runtime}**, using the
  :class:`~repro.analysis.project.ProjectIndex` call graph plus the
  :mod:`~repro.analysis.dataflow` classifiers:

  - an rng constructed at *module scope* (``RNG = default_rng(42)``) —
    module-level generator state shared across every caller and fork;
  - an rng constructed as a *parameter default* — one stream evaluated
    at def time, shared by all calls;
  - a *constant-seeded* construction inside a function that already
    holds a threaded rng (an ``rng``/``*_rng``/``Generator``-annotated
    parameter or an rng field on its class) — a re-seed that disconnects
    the stream from the scenario;
  - a constant-seeded construction in a helper with no threaded rng of
    its own but reachable through the call graph from a function that
    has one — the cross-module re-seed no per-file rule can observe.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.core import ImportMap, LintContext, LintRule, in_taint_path
from repro.analysis.dataflow import class_rng_fields, rng_call_kind, rng_params
from repro.analysis.project import FunctionInfo, ProjectIndex
from repro.registry import register

RULE = "rng-taint"

#: numpy.random attributes that are deterministic plumbing, not draws:
#: constructing an explicitly seeded generator is the *sanctioned* idiom.
_NP_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: stdlib ``random`` attributes that do not touch module-level state.
#: (``random.Random(seed)`` is a private, seeded stream — acceptable;
#: ``SystemRandom`` is OS entropy and therefore never reproducible.)
_STDLIB_ALLOWED = frozenset({"Random"})


class _NumpyRandomUseVisitor(ast.NodeVisitor):
    """Collects numpy.random uses in executable positions (not annotations)."""

    def __init__(self, imports: ImportMap) -> None:
        self.imports = imports
        self.hits: list[tuple[ast.AST, str]] = []

    def _scan_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # Only the body executes; arg/return annotations are type-speak
        # (rng: np.random.Generator is the *sanctioned* signature).
        for stmt in node.body:
            self.visit(stmt)

    visit_FunctionDef = _scan_function
    visit_AsyncFunctionDef = _scan_function

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        fn = self.imports.numpy_random_attr(node)
        if fn is not None and fn != "Generator":
            self.hits.append((node, fn))
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.imports.npr_funcs:
            self.hits.append((node, self.imports.npr_funcs[node.id].rpartition(".")[2]))


def _failure_model_hits(models: Iterable[ast.ClassDef], imports: ImportMap):
    """``np.random`` uses in executable positions of registered failure models."""
    for cls in models:
        visitor = _NumpyRandomUseVisitor(imports)
        for stmt in cls.body:
            visitor.visit(stmt)
        for hit, fn in visitor.hits:
            yield hit, (
                f"failure model {cls.name} touches np.random.{fn} — all "
                "randomness must come from the passed rng (schedules are "
                "generated once from the flat seed and sliced per shard)"
            )


def _module_state_hits(tree: ast.AST, imports: ImportMap):
    """Calls that draw from module-level RNG state or OS entropy."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = imports.numpy_random_attr(node.func)
        if fn is not None:
            if rng_call_kind(node, imports) == "unseeded":
                yield node, (
                    "unseeded np.random.default_rng() — an OS-entropy stream can "
                    "never reproduce; seed from scenario data and thread the "
                    "generator through calls"
                )
            elif fn not in _NP_ALLOWED:
                yield node, (
                    f"module-level numpy RNG call np.random.{fn}() — draw from a "
                    "passed, seeded np.random.Generator instead"
                )
            continue
        fn = imports.stdlib_random_attr(node.func)
        if fn is not None and fn not in _STDLIB_ALLOWED:
            yield node, (
                f"stdlib random.{fn}() uses hidden module-level state — use a "
                "seeded np.random.Generator (or random.Random(seed)) instead"
            )


def _own_nodes(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Nodes of a function body, excluding nested def/class subtrees.

    Nested functions are indexed (and scanned) separately; descending
    into them here would report their findings twice.
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)


def _short(qualname: str) -> str:
    return qualname.rpartition(".")[2]


def _provenance_hits(
    index: ProjectIndex,
    mod_name: str,
    imports: ImportMap,
    threaded: set[str],
    parent: dict[str, str | None],
):
    """Generator state and constant re-seeds in one taint-covered module.

    ``threaded`` holds the functions with a threaded rng; ``parent`` maps
    every function reachable from one to its caller on a shortest chain.
    """

    def chain(qual: str) -> str:
        hops = [qual]
        while parent.get(hops[-1]) is not None:
            hops.append(parent[hops[-1]])
        return " <- ".join(_short(h) for h in hops)

    # Module-scope generator state (seeded or not, it is shared
    # across every caller and duplicated by fork).
    for gname, stmt in sorted(index.module_globals.get(mod_name, {}).items()):
        value = getattr(stmt, "value", None)
        if value is not None and rng_call_kind(value, imports) is not None:
            yield stmt, (
                f"module-level generator {gname!r} — rng state at module "
                "scope is shared by every caller and forked into workers; "
                "construct it inside the seeded entry point instead"
            )

    for qual in sorted(q for q, i in index.functions.items()
                       if index.module_names.get(i.module.rel) == mod_name):
        info: FunctionInfo = index.functions[qual]
        fn = info.node

        # Generator constructed as a parameter default: evaluated
        # once at def time, silently shared by all calls.
        defaults = list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if rng_call_kind(default, imports) is not None:
                yield default, (
                    f"{_short(qual)}() constructs an rng as a parameter "
                    "default — one stream is created at def time and "
                    "shared across all calls; require the caller to pass "
                    "a seeded generator"
                )

        # Constant re-seeds: in a threaded function directly, or in
        # a helper reachable from one through the call graph.
        for node in _own_nodes(fn):
            if rng_call_kind(node, imports) != "const":
                continue
            if qual in threaded:
                yield node, (
                    f"{_short(qual)}() holds a threaded rng but "
                    "constructs a constant-seeded generator — the new "
                    "stream ignores the scenario seed; derive from the "
                    "threaded rng (rng.spawn()) instead"
                )
            elif qual in parent:
                yield node, (
                    f"constant-seeded generator in {_short(qual)}(), "
                    f"reachable from rng-threaded code ({chain(qual)}) — "
                    "the fixed stream disconnects results from the "
                    "scenario seed; accept and use the caller's rng"
                )


@register("lint", "rng-taint")
class RngTaintRule(LintRule):
    """Module-level, unseeded, defaulted, or re-seeded rngs; failure-model draws."""

    name = RULE
    scope = "repo"
    description = (
        "all randomness flows from the seeded, threaded rng: no module-level "
        "draws (np.random.rand()/random.random()/np.random.seed()) or unseeded "
        "default_rng() anywhere, no np.random use inside registered failure "
        "models, and in repro/{simulator,failures,scenario,runtime} no "
        "module-level or default-argument generator state and no constant "
        "re-seeds in or below rng-threaded functions"
    )

    def check_repo(self, ctx: LintContext):
        index: ProjectIndex = ctx.project
        import_maps = {name: ImportMap(mod.tree) for name, mod in index.modules.items()}
        covered = {name for name, mod in index.modules.items() if in_taint_path(mod.rel)}

        # Registered failure-model classes, by module (deduplicated).
        failure_models: dict[str, dict[str, ast.ClassDef]] = {}
        for reg in index.registrations:
            cls = index.classes.get(reg.target) if reg.kind == "failure" else None
            if cls is not None:
                mod_name = index.module_names[cls.module.rel]
                failure_models.setdefault(mod_name, {})[cls.qualname] = cls.node

        # Which functions hold a threaded rng: a recognised rng parameter,
        # or a method on a class with rng-carrying fields.
        rng_fields: dict[str, list[str]] = {}
        threaded: set[str] = set()
        for qual, info in index.functions.items():
            mod_name = index.module_names.get(info.module.rel)
            if mod_name not in covered:
                continue
            if rng_params(info.node):
                threaded.add(qual)
                continue
            if info.class_qualname is not None:
                cls = index.classes.get(info.class_qualname)
                if cls is not None and info.class_qualname not in rng_fields:
                    rng_fields[info.class_qualname] = class_rng_fields(
                        cls.node, import_maps[mod_name]
                    )
                if rng_fields.get(info.class_qualname):
                    threaded.add(qual)

        # BFS from every threaded function, keeping one parent per node so
        # cross-module findings can name the chain that reaches them.
        parent: dict[str, str | None] = {q: None for q in sorted(threaded)}
        queue = sorted(threaded)
        while queue:
            current = queue.pop(0)
            for callee in sorted(index.callees(current)):
                if callee not in parent:
                    parent[callee] = current
                    queue.append(callee)

        for mod_name in sorted(index.modules):
            module = index.modules[mod_name]
            imports = import_maps[mod_name]
            hits = [
                *_failure_model_hits(failure_models.get(mod_name, {}).values(), imports),
                *_module_state_hits(module.tree, imports),
            ]
            if mod_name in covered:
                hits.extend(_provenance_hits(index, mod_name, imports, threaded, parent))
            # One finding per node, however many checks it trips.
            seen: set[tuple[int, int]] = set()
            for node, message in hits:
                key = (node.lineno, node.col_offset)
                if key not in seen:
                    seen.add(key)
                    yield module.finding(RULE, node, message)
