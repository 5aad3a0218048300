"""Unified component registry for every pluggable piece of the system.

The simulation pipeline is assembled from named components — deflation
policies, placement strategies and scorers, admission controllers, pricing
models, metrics collectors, workload sources, experiments, engines.  This
module is the single discovery point for all of them, replacing the four
ad-hoc per-module dictionaries the repo grew organically.  One survives as
a thin :class:`RegistryView`: ``repro.pricing.models.PRICING_MODELS``,
which the pinned reference simulator iterates.

Two registration modes:

* ``@register(kind, name, **defaults)`` — registers a *factory* (a class or
  callable).  :func:`create` builds a fresh instance per call;
  :func:`resolve` builds one shared singleton lazily.  ``defaults`` are
  keyword arguments bound at registration, so one class can back several
  named variants (e.g. ``priority`` / ``priority-eq3``).
* ``@register_value(kind, name)`` — registers the object itself (used for
  experiment ``run`` functions, which must not be called at lookup time).

Conventions:

* kinds are lower-case singular nouns (``policy``, ``scorer``, ``pricing``);
* names are lower-case, dash-separated, and stable — they appear in
  ``Scenario`` dicts, CLIs, and result tables;
* registering a duplicate name raises :class:`RegistryError` unless
  ``replace=True`` is passed (explicit overriding is how downstream code
  swaps a stock component for its own).

The module depends only on :mod:`repro.errors`, so any module can register
components without import cycles.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RegistryError, UnknownComponentError


@dataclass
class _Entry:
    """One registered component."""

    kind: str
    name: str
    obj: Any
    defaults: dict[str, Any]
    is_factory: bool
    singleton: Any = None
    has_singleton: bool = field(default=False)

    def build(self, **kwargs: Any) -> Any:
        if not self.is_factory:
            if kwargs:
                raise RegistryError(
                    f"{self.kind}:{self.name} is registered as a value, "
                    f"not a factory; it takes no construction arguments"
                )
            return self.obj
        merged = {**self.defaults, **kwargs}
        return self.obj(**merged)

    def shared(self) -> Any:
        if not self.is_factory:
            return self.obj
        if not self.has_singleton:
            self.singleton = self.obj(**self.defaults)
            self.has_singleton = True
        return self.singleton


_REGISTRY: dict[str, dict[str, _Entry]] = {}


def _lookup(kind: str, name: str) -> _Entry:
    entries = _REGISTRY.get(kind)
    if not entries:
        raise UnknownComponentError(
            f"unknown component kind {kind!r}; registered kinds: {kinds()}"
        )
    try:
        return entries[name]
    except KeyError:
        raise UnknownComponentError(
            f"unknown {kind} {name!r}; available: {names(kind)}"
        ) from None


def _add(entry: _Entry, replace: bool) -> None:
    entries = _REGISTRY.setdefault(entry.kind, {})
    if entry.name in entries and not replace:
        raise RegistryError(
            f"{entry.kind} {entry.name!r} is already registered; "
            f"pass replace=True to override"
        )
    entries[entry.name] = entry


def register(
    kind: str, name: str | None = None, *, replace: bool = False, **defaults: Any
) -> Callable[[Any], Any]:
    """Decorator registering a factory (class or callable) under ``kind``.

    ``name`` defaults to the factory's ``name`` attribute, falling back to
    its ``__name__``.  ``defaults`` are bound construction kwargs.
    """

    def deco(obj: Any) -> Any:
        resolved = name
        if resolved is None:
            resolved = getattr(obj, "name", None)
            if not isinstance(resolved, str) or not resolved or resolved == "abstract":
                resolved = obj.__name__
        _add(
            _Entry(kind=kind, name=resolved, obj=obj, defaults=dict(defaults), is_factory=True),
            replace,
        )
        return obj

    return deco


def register_value(kind: str, name: str, *, replace: bool = False) -> Callable[[Any], Any]:
    """Decorator registering an object as-is (no construction on lookup)."""

    def deco(obj: Any) -> Any:
        _add(_Entry(kind=kind, name=name, obj=obj, defaults={}, is_factory=False), replace)
        return obj

    return deco


def register_instance(kind: str, name: str, obj: Any, *, replace: bool = False) -> Any:
    """Imperative form of :func:`register_value` for pre-built instances."""
    _add(_Entry(kind=kind, name=name, obj=obj, defaults={}, is_factory=False), replace)
    return obj


def create(kind: str, name: str, **kwargs: Any) -> Any:
    """Construct a fresh component instance by name."""
    return _lookup(kind, name).build(**kwargs)


def resolve(kind: str, name: str) -> Any:
    """Return the shared singleton for a component (built lazily)."""
    return _lookup(kind, name).shared()


def names(kind: str) -> list[str]:
    """Sorted names registered under one kind."""
    return sorted(_REGISTRY.get(kind, ()))


def kinds() -> list[str]:
    """Sorted list of all registered kinds."""
    return sorted(k for k, entries in _REGISTRY.items() if entries)


def is_registered(kind: str, name: str) -> bool:
    return name in _REGISTRY.get(kind, ())


def unregister(kind: str, name: str) -> None:
    """Remove one component (primarily for tests cleaning up after plugins)."""
    try:
        del _REGISTRY[kind][name]
    except KeyError:
        raise UnknownComponentError(
            f"unknown {kind} {name!r}; available: {names(kind)}"
        ) from None


def validate(kind: str, name: str) -> str:
    """Check a name is registered, returning it; raise a listing error if not."""
    _lookup(kind, name)
    return name


class RegistryView(Mapping):
    """Live read-only mapping ``name -> shared instance`` for one kind.

    ``PRICING_MODELS`` is an instance of this class, so pricing models
    registered later — including by downstream plugins — appear in it
    automatically.
    """

    __slots__ = ("_kind",)

    def __init__(self, kind: str) -> None:
        self._kind = kind

    @property
    def kind(self) -> str:
        return self._kind

    def __getitem__(self, name: str) -> Any:
        try:
            return resolve(self._kind, name)
        except UnknownComponentError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(names(self._kind))

    def __len__(self) -> int:
        return len(names(self._kind))

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and is_registered(self._kind, name)

    def __repr__(self) -> str:
        return f"RegistryView({self._kind!r}: {names(self._kind)})"
