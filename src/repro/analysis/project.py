"""Whole-program index for repo-scope lint rules.

:class:`ProjectIndex` is built once per lint run (lazily, the first time
a rule touches ``LintContext.project``) from the already-collected
:class:`~repro.analysis.core.ModuleSource` list.  It turns the flat file
list into the structures cross-module rules need:

* a **module graph** — dotted module names derived from paths
  (``src/repro/scenario/sweep.py`` → ``repro.scenario.sweep``), internal
  import edges, and per-module import *bindings* (local name → fully
  qualified target) that follow aliases and relative imports;
* a **symbol table** — every class, function, and method, addressable by
  qualified name (``repro.simulator.components.MetricsCollector``,
  ``...EventCountsCollector.on_admit``), plus module-level assignments
  (the globals workers must not mutate);
* every static **registry registration**, resolved to the decorated
  definition where there is one;
* a best-effort **call graph** over names the index can actually resolve
  (direct calls, module-attribute calls, ``self.`` method calls) — the
  propagation substrate for the taint and purity rules.

Like every other analysis structure, the index is a *pure reader*: it
parses, it never imports the code under analysis.  Degradation is partial
by design — a module that does not parse contributes nothing (it is
listed in :attr:`ProjectIndex.skipped` and separately reported as a
``syntax-error`` finding by the runner), namespace packages (directories
without ``__init__.py``) index like any other, and unresolvable names
simply resolve to ``None`` instead of raising.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import ImportMap, ModuleSource

#: register-family functions whose call sites declare components.
REGISTER_FNS = frozenset({"register", "register_value", "register_instance"})

#: Maximum binding-chain length followed when resolving re-exports.
_RESOLVE_DEPTH = 16


def module_name_for(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    A leading ``src/`` component is stripped (the repo's layout), and
    ``__init__.py`` names its package.  Paths outside any package
    (``examples/quickstart.py``, ``benchmarks/helpers.py``) still get a
    stable dotted name from their directories, so the index can hold the
    whole linted tree, not just the importable library.
    """
    parts = list(Path(rel).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else rel


@dataclass(frozen=True)
class Registration:
    """One static ``@register``-family call site."""

    kind: str
    name: str
    module: ModuleSource
    node: ast.Call
    #: Qualified name of the decorated class/function, None for bare calls.
    target: str | None


@dataclass
class ClassInfo:
    """One class definition, addressable by qualified name."""

    qualname: str
    module: ModuleSource
    node: ast.ClassDef
    #: Base classes as written (dotted source text, unresolved).
    bases: list[str] = field(default_factory=list)

    def methods(self) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
        return {
            stmt.name: stmt
            for stmt in self.node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: ModuleSource
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Qualified name of the enclosing class for methods, else None.
    class_qualname: str | None = None


def _dotted(expr: ast.expr) -> str | None:
    """``a.b.c`` for a Name-rooted attribute chain, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def literal_str(node: ast.expr | None) -> str | None:
    """The value of a string-literal expression, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _ModuleIndexer(ast.NodeVisitor):
    """One pass over a module collecting defs, globals, and registrations."""

    def __init__(self, index: ProjectIndex, module: ModuleSource, mod_name: str) -> None:
        self.index = index
        self.module = module
        self.mod_name = mod_name
        self.imports = ImportMap(module.tree)
        self.scope: list[str] = []  # enclosing def/class names
        self.class_stack: list[str] = []  # enclosing class qualnames
        self._decorator_calls: set[int] = set()  # node ids handled at the def site

    # -- definitions -------------------------------------------------------------

    def _qual(self, name: str) -> str:
        return ".".join([self.mod_name, *self.scope, name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        bases = [b for b in (_dotted(base) for base in node.bases) if b is not None]
        self.index.classes[qual] = ClassInfo(qual, self.module, node, bases)
        self._collect_registrations(node, qual)
        self.scope.append(node.name)
        self.class_stack.append(qual)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        qual = self._qual(node.name)
        self.index.functions[qual] = FunctionInfo(
            qual, self.module, node, self.class_stack[-1] if self.class_stack else None
        )
        self._collect_registrations(node, qual)
        self.scope.append(node.name)
        in_class = bool(self.class_stack)
        if in_class:
            # Nested defs inside a method are scoped under the method, not
            # the class; the class context does not extend through them.
            self.class_stack.append(self.class_stack[-1])
        self.generic_visit(node)
        if in_class:
            self.class_stack.pop()
        self.scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.scope:  # module level only
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.index.module_globals[self.mod_name][target.id] = node
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self.scope and isinstance(node.target, ast.Name):
            self.index.module_globals[self.mod_name][node.target.id] = node
        self.generic_visit(node)

    # -- registrations -----------------------------------------------------------

    def _collect_registrations(self, node: ast.AST, target: str | None) -> None:
        decorators = getattr(node, "decorator_list", [])
        for deco in decorators:
            if isinstance(deco, ast.Call):
                self._decorator_calls.add(id(deco))
            self._maybe_registration(deco, target)

    def _maybe_registration(self, call: ast.AST, target: str | None) -> None:
        if not isinstance(call, ast.Call):
            return
        if self.imports.registry_call(call.func) not in REGISTER_FNS:
            return
        args = list(call.args)
        kwargs = {k.arg: k.value for k in call.keywords if k.arg}
        kind = literal_str(args[0] if args else kwargs.get("kind"))
        name = literal_str(args[1] if len(args) > 1 else kwargs.get("name"))
        if kind is not None and name is not None:
            self.index.registrations.append(
                Registration(kind, name, self.module, call, target)
            )

    def visit_Call(self, node: ast.Call) -> None:
        # Bare (non-decorator) register calls: register_instance("kind",
        # "name", obj).  Decorator calls were already collected at the def
        # site with their target attached, so they are skipped here.
        if id(node) not in self._decorator_calls:
            self._maybe_registration(node, None)
        self.generic_visit(node)


class ProjectIndex:
    """Module graph + symbol table + registrations + call graph.

    Build once from the collected modules; every attribute is a plain
    dict keyed by dotted names, so rules can be written against stable
    structures instead of re-walking ASTs.
    """

    def __init__(self, modules: list[ModuleSource]) -> None:
        #: dotted module name -> source (first wins on collisions).
        self.modules: dict[str, ModuleSource] = {}
        #: rel path -> dotted module name.
        self.module_names: dict[str, str] = {}
        #: modules whose AST is unavailable (syntax errors): partial index.
        self.skipped: list[ModuleSource] = []
        #: module -> local name -> fully qualified imported target.
        self.bindings: dict[str, dict[str, str]] = {}
        #: internal import graph (edges to modules present in the index).
        self.imports: dict[str, set[str]] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: module -> top-level assigned name -> the assignment statement.
        self.module_globals: dict[str, dict[str, ast.stmt]] = {}
        self.registrations: list[Registration] = []
        #: function qualname -> resolved call targets (qualified names).
        self.calls: dict[str, set[str]] = {}

        for module in modules:
            name = module_name_for(module.rel)
            if module.tree is None:
                self.skipped.append(module)
                continue
            if name in self.modules:
                continue
            self.modules[name] = module
            self.module_names[module.rel] = name
            self.module_globals[name] = {}
        for name, module in self.modules.items():
            self.bindings[name] = self._collect_bindings(name, module)
        for name, module in self.modules.items():
            indexer = _ModuleIndexer(self, module, name)
            indexer.visit(module.tree)
        for name in self.modules:
            self.imports[name] = {
                self._binding_module(target)
                for target in self.bindings[name].values()
                if self._binding_module(target) is not None
            }
        self._build_call_graph()

    # -- import bindings ---------------------------------------------------------

    def _collect_bindings(self, mod_name: str, module: ModuleSource) -> dict[str, str]:
        bindings: dict[str, str] = {}
        package = mod_name.rpartition(".")[0]
        if module.rel.endswith("__init__.py"):
            package = mod_name
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        head = alias.name.partition(".")[0]
                        bindings[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = package.split(".") if package else []
                    if node.level > 1:
                        up = up[: len(up) - (node.level - 1)]
                    base = ".".join([p for p in [".".join(up), node.module or ""] if p])
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    bindings[bound] = f"{base}.{alias.name}" if base else alias.name
        return bindings

    def _binding_module(self, target: str) -> str | None:
        """The indexed module a fully qualified target lives in, if any."""
        parts = target.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate
        return None

    # -- symbol resolution -------------------------------------------------------

    def resolve(self, fq: str) -> ClassInfo | FunctionInfo | None:
        """The definition behind a qualified name, following re-exports."""
        seen: set[str] = set()
        for _ in range(_RESOLVE_DEPTH):
            if fq in seen:
                return None
            seen.add(fq)
            if fq in self.classes:
                return self.classes[fq]
            if fq in self.functions:
                return self.functions[fq]
            mod = self._binding_module(fq)
            if mod is None or mod == fq:
                return None
            rest = fq[len(mod) + 1 :].split(".")
            head = rest[0]
            bound = self.bindings.get(mod, {}).get(head)
            if bound is None:
                return None
            fq = ".".join([bound, *rest[1:]])
        return None

    def resolve_in_module(self, mod_name: str, dotted: str) -> str | None:
        """Fully qualify a dotted name as seen from inside ``mod_name``."""
        head, _, rest = dotted.partition(".")
        local = f"{mod_name}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        if head in self.module_globals.get(mod_name, {}) and not rest:
            return local
        bound = self.bindings.get(mod_name, {}).get(head)
        if bound is not None:
            return f"{bound}.{rest}" if rest else bound
        if f"{mod_name}.{head}" in self.classes and rest:
            return local
        return None

    def class_named(self, name: str, prefer: str | None = None) -> ClassInfo | None:
        """A class by bare name (``prefer`` picks among homonyms by prefix)."""
        matches = [c for q, c in self.classes.items() if q.rpartition(".")[2] == name]
        if prefer is not None:
            preferred = [c for c in matches if c.qualname.startswith(prefer)]
            if preferred:
                matches = preferred
        return min(matches, key=lambda c: c.qualname) if matches else None

    def ancestors(self, cls: ClassInfo, depth: int = 8) -> list[ClassInfo]:
        """``cls`` then its index-resolvable bases, breadth-first (MRO-like)."""
        order: list[ClassInfo] = []
        queue: list[tuple[ClassInfo, int]] = [(cls, 0)]
        seen: set[str] = set()
        while queue:
            current, d = queue.pop(0)
            if current.qualname in seen or d > depth:
                continue
            seen.add(current.qualname)
            order.append(current)
            mod_name = self.module_names.get(current.module.rel)
            for base in current.bases:
                fq = self.resolve_in_module(mod_name, base) if mod_name else None
                resolved = self.resolve(fq) if fq else None
                if isinstance(resolved, ClassInfo):
                    queue.append((resolved, d + 1))
        return order

    def mro_methods(self, cls: ClassInfo) -> dict[str, ast.AST]:
        """Methods visible on ``cls`` through index-resolvable bases."""
        methods: dict[str, ast.AST] = {}
        for current in self.ancestors(cls):
            for name, node in current.methods().items():
                methods.setdefault(name, node)
        return methods

    # -- call graph --------------------------------------------------------------

    def _build_call_graph(self) -> None:
        for qual, info in self.functions.items():
            mod_name = self.module_names.get(info.module.rel)
            if mod_name is None:
                continue
            targets: set[str] = set()
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                resolved = self._resolve_call(dotted, mod_name, info)
                if resolved is not None:
                    targets.add(resolved)
            self.calls[qual] = targets

    def _resolve_call(
        self, dotted: str, mod_name: str, info: FunctionInfo
    ) -> str | None:
        head, _, rest = dotted.partition(".")
        if head == "self" and info.class_qualname is not None and rest:
            # Walk the (index-resolvable) MRO: the method may live on a base.
            cls = self.classes.get(info.class_qualname)
            for current in self.ancestors(cls) if cls else ():
                candidate = f"{current.qualname}.{rest}"
                if candidate in self.functions:
                    return candidate
            return None
        fq = self.resolve_in_module(mod_name, dotted)
        if fq is None:
            return None
        resolved = self.resolve(fq)
        if isinstance(resolved, FunctionInfo):
            return resolved.qualname
        if isinstance(resolved, ClassInfo):
            # Calling a class runs its constructor.
            init = f"{resolved.qualname}.__init__"
            return init if init in self.functions else resolved.qualname
        return None

    def callees(self, qualname: str) -> set[str]:
        return self.calls.get(qualname, set())

    def reachable_from(self, roots: list[str], limit: int = 500) -> list[str]:
        """Qualnames reachable through the call graph, BFS order, bounded."""
        order: list[str] = []
        seen: set[str] = set()
        queue = [r for r in roots if r in self.functions or r in self.classes]
        while queue and len(order) < limit:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(sorted(self.callees(current) - seen))
        return order
