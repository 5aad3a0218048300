"""Registry-discipline rules.

The unified component registry (``repro/registry.py``) only keeps the
system coherent if every registration is greppable and catalogued:

* ``registry-call-discipline`` — every ``@register`` / ``@register_value``
  / ``register_instance`` call site names a *known kind* and an *explicit
  string-literal name* (implicit names and computed kinds defeat both the
  docs catalogue and static lookup checking); literal kinds passed to
  ``create`` / ``resolve`` / ``validate`` / ``names`` / ``is_registered``
  must be known too.
* ``registry-docs`` — every statically registered ``(kind, name)`` pair
  appears in ``docs/registry.md``, the catalogue the README points users
  at.  Name lists may use a lexical range (``` `fig03` … `fig22` ```) to
  keep long families readable.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import ImportMap, LintContext, LintRule, ModuleSource, is_test_path
from repro.analysis.project import REGISTER_FNS, literal_str
from repro.registry import register

#: The registry kinds this repo defines (ROADMAP "Established
#: architecture" + the ``lint`` kind this subsystem adds).  Downstream
#: plug-ins introducing a genuinely new kind extend this list in the same
#: PR that documents the kind in docs/registry.md.
KNOWN_KINDS = frozenset(
    {
        "policy",
        "placement",
        "pricing",
        "experiment",
        "admission",
        "scorer",
        "metrics",
        "workload",
        "failure",
        "engine",
        "lint",
    }
)

_LOOKUP_FNS = frozenset(
    {"create", "resolve", "validate", "is_registered", "names", "unregister"}
)

#: Backticked names in docs tables, and lexical ranges between two of them.
_BACKTICKED = re.compile(r"`([\w\-.]+)`")
_RANGE = re.compile(r"`([\w\-.]+)`\s*(?:…|\.\.\.)\s*`([\w\-.]+)`")


def iter_register_calls(
    tree: ast.AST, imports: ImportMap
) -> Iterator[tuple[ast.Call, str, ast.expr | None, ast.expr | None]]:
    """Yield ``(call, fn, kind_node, name_node)`` for registry call sites.

    ``fn`` is the canonical registry function name; ``kind_node`` /
    ``name_node`` are the positional-or-keyword argument expressions (or
    None when omitted).  Works on decorators and bare calls alike —
    decorators *are* Call nodes in the AST.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = imports.registry_call(node.func)
        if fn is None or fn not in (REGISTER_FNS | _LOOKUP_FNS):
            continue
        args = list(node.args)
        kwargs = {k.arg: k.value for k in node.keywords if k.arg}
        kind_node = args[0] if args else kwargs.get("kind")
        name_node = args[1] if len(args) > 1 else kwargs.get("name")
        yield node, fn, kind_node, name_node


@register("lint", "registry-call-discipline")
class RegistryCallDisciplineRule(LintRule):
    """Registrations use known kinds and explicit literal names."""

    name = "registry-call-discipline"
    scope = "file"
    description = (
        "@register/@register_value call sites must pass a known kind and "
        "an explicit string-literal name (greppable, docs-checkable); "
        "literal kinds in create/resolve/validate lookups must be known"
    )

    def check(self, module: ModuleSource, ctx: LintContext):
        # Tests exercise the registry machinery itself — unknown kinds for
        # error paths, computed kinds in parametrized loops, throwaway
        # names.  The catalogue contract only covers the shipped tree.
        if is_test_path(module.rel):
            return
        tree = module.tree
        if tree is None:
            return
        imports = ImportMap(tree)
        if not imports.registry_funcs and not imports.registry_mod_aliases:
            return
        for node, fn, kind_node, name_node in iter_register_calls(tree, imports):
            kind = literal_str(kind_node)
            if kind is None:
                yield module.finding(
                    self.name,
                    node,
                    f"{fn}() kind must be a string literal (computed kinds are "
                    "invisible to the docs catalogue and static checks)",
                )
            elif kind not in KNOWN_KINDS:
                yield module.finding(
                    self.name,
                    node,
                    f"{fn}() uses unknown registry kind {kind!r}; known kinds: "
                    f"{sorted(KNOWN_KINDS)} — new kinds are introduced by "
                    "extending KNOWN_KINDS and docs/registry.md together",
                )
            if fn in REGISTER_FNS and literal_str(name_node) is None:
                yield module.finding(
                    self.name,
                    node,
                    f"{fn}() name must be an explicit string literal — "
                    "implicit/computed names cannot be catalogued or grepped",
                )


def documented_names(doc_text: str, registered: set[str]) -> set[str]:
    """Names a docs catalogue covers: backticked tokens + lexical ranges.

    A range ``` `a` … `b` ``` documents every registered name that sorts
    between ``a`` and ``b`` inclusive (how the experiment family
    ``fig03`` … ``fig22`` stays a one-cell row).
    """
    covered = {m.group(1) for m in _BACKTICKED.finditer(doc_text)}
    for m in _RANGE.finditer(doc_text):
        lo, hi = m.group(1), m.group(2)
        covered.update(n for n in registered if lo <= n <= hi)
    return covered


@register("lint", "registry-docs")
class RegistryDocsRule(LintRule):
    """Every registered component appears in docs/registry.md."""

    name = "registry-docs"
    scope = "repo"
    description = (
        "every @register/@register_value (kind, name) in the linted tree "
        "must be catalogued in docs/registry.md (lexical ranges like "
        "`fig03` … `fig22` count)"
    )

    def check_repo(self, ctx: LintContext):
        registrations = [
            reg for reg in ctx.project.registrations if not is_test_path(reg.module.rel)
        ]
        if not registrations:
            return
        doc_text = ctx.read_doc("docs/registry.md")
        if doc_text is None:
            yield registrations[0].module.finding(
                self.name,
                registrations[0].node,
                "docs/registry.md is missing — the component catalogue must "
                "exist for registered components to be discoverable",
            )
            return
        covered = documented_names(doc_text, {reg.name for reg in registrations})
        for reg in registrations:
            if reg.name not in covered:
                yield reg.module.finding(
                    self.name,
                    reg.node,
                    f"{reg.kind} component {reg.name!r} is not catalogued in "
                    "docs/registry.md — add it to the kind's row",
                )
