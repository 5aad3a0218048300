"""Memoized sweeps: a result cache keyed on canonical scenario hashes.

The figure harnesses replay the *same* (policy x overcommitment) grids over
and over — across figures 20-22 (which share one sweep), across benchmark
rounds, and across interactive sessions.  Every simulator run is
deterministic in its :class:`~repro.scenario.scenario.Scenario`, so a sweep
result can be memoized on a canonical hash of ``Scenario.to_dict()``:

* the dict elides defaults, so two scenarios spelled differently but
  meaning the same thing share a key;
* *any* field change — policy, workload params, cluster shape, admission
  rule, collectors — changes the canonical JSON and therefore the key;
* scenarios carrying explicit in-memory traces do not serialize and are
  never cached (they fall through to a normal run).

Two backends behind one class: in-memory (default — process-lifetime
memoization, used by the experiment harnesses) and on-disk JSON (one file
per key under a directory, surviving across processes; results round-trip
through a tagged encoding so tuples and numpy scalars come back exactly as
the simulator produced them).  Opt in via ``run_sweep(..., cache=...)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.errors import SimulationError
from repro.runtime.journal import write_atomic
from repro.scenario.results import ScenarioResult
from repro.scenario.scenario import Scenario
from repro.simulator.cluster_sim import ClusterSimConfig, ClusterSimResult

#: Bump when the stored payload layout or the replay model changes; part of
#: every cache key, so stale on-disk entries are simply never hit.  v2: an
#: emptied server's reclaim is zeroed (no stale residue).
CACHE_FORMAT_VERSION = 2


def scenario_key(scenario: Scenario) -> str:
    """Canonical cache key: sha256 over the scenario's sorted-key JSON.

    Checkpoint-carrying scenarios key on the declarative fields *plus* the
    snapshot's own fingerprint — the same scenario forked from a different
    warm prefix is a different run and must not collide.  Raises
    :class:`SimulationError` for scenarios that cannot serialize (explicit
    traces); use :func:`cacheable` to probe first.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "scenario": scenario.without_checkpoint().to_dict(),
    }
    if scenario.checkpoint is not None:
        payload["checkpoint"] = scenario.checkpoint.fingerprint()
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def cacheable(scenario: Scenario) -> bool:
    """True when the scenario serializes (and can therefore be memoized)."""
    return scenario.traces is None


# -- tagged JSON encoding -----------------------------------------------------------
#
# Results must round-trip *exactly*: a warm cache hit has to compare equal to
# the cold run, including tuples inside collector payloads and float bit
# patterns (repr round-trips IEEE doubles losslessly).


def _encode(obj):
    if isinstance(obj, tuple):
        return {"__tuple__": [_encode(x) for x in obj]}
    if isinstance(obj, list):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("only string dict keys are cacheable")
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "__dtype__": str(obj.dtype)}
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot cache object of type {type(obj).__name__}")


def _decode(obj):
    if isinstance(obj, dict):
        if "__tuple__" in obj and len(obj) == 1:
            return tuple(_decode(x) for x in obj["__tuple__"])
        if "__ndarray__" in obj and "__dtype__" in obj and len(obj) == 2:
            return np.asarray(obj["__ndarray__"], dtype=obj["__dtype__"])
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(x) for x in obj]
    return obj


# Derived from the dataclasses so a future field cannot silently drop out
# of the payload (which would break the warm==cold guarantee): new fields
# are stored and restored automatically, and reconstruction fails loudly if
# a stored payload no longer matches the dataclass shape.
_SIM_FIELDS = tuple(
    f.name for f in dataclasses.fields(ClusterSimResult) if f.name != "config"
)
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ClusterSimConfig))


def _result_to_payload(result: ScenarioResult) -> dict:
    sim = result.sim
    scenario = result.scenario
    payload = {
        "version": CACHE_FORMAT_VERSION,
        # A snapshot is live state and does not serialize to JSON; the
        # checkpoint already shaped the key via its fingerprint, so the
        # stored scenario is the declarative remainder.  Disk hits for
        # checkpointed runs therefore come back with ``scenario.checkpoint
        # is None`` (the *result* values are still bit-identical); the
        # in-memory backend stores the live object and keeps it.
        "scenario": scenario.without_checkpoint().to_dict(),
        "config": _encode({f: getattr(sim.config, f) for f in _CONFIG_FIELDS}),
        "sim": _encode({f: getattr(sim, f) for f in _SIM_FIELDS}),
    }
    if scenario.checkpoint is not None:
        payload["checkpoint"] = scenario.checkpoint.fingerprint()
    return payload


def _payload_to_result(payload: dict) -> ScenarioResult:
    config_kwargs = _decode(payload["config"])
    config_kwargs["collectors"] = tuple(config_kwargs.get("collectors", ()))
    sim = ClusterSimResult(
        config=ClusterSimConfig(**config_kwargs), **_decode(payload["sim"])
    )
    return ScenarioResult(scenario=Scenario.from_dict(payload["scenario"]), sim=sim)


class SweepCache:
    """Scenario-keyed result cache with in-memory and on-disk backends.

    ``SweepCache()`` memoizes within the process (results are stored as-is,
    no serialization cost on hits).  ``SweepCache(path)`` persists each
    result as ``<key>.json`` under ``path``, surviving across processes and
    sessions; hits are reconstructed from the tagged JSON and compare equal
    to a cold run.

    Keys are a sha256 over the canonical ``Scenario.to_dict()`` (see
    ``docs/scenario-schema.md``): any field change — including failure
    model, parameters, seed, or response — is a different entry, while
    execution knobs like ``run_sweep(workers=...)`` are deliberately not
    part of the key.  The experiment harnesses share one module-level
    cache (``repro.experiments.cluster_sweep.SWEEP_CACHE``), placed on
    disk when ``REPRO_SWEEP_CACHE_DIR`` is set.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        # The directory is created lazily on first write: a bad or
        # unwritable path (env-var driven callers) must degrade to cache
        # misses, not break construction — or module imports — outright.
        self.path = Path(path).expanduser() if path is not None else None
        self._memory: dict[str, ScenarioResult] = {}
        self.hits = 0
        self.misses = 0
        self.skipped = 0  # uncacheable scenarios/results seen
        self.corrupt = 0  # on-disk entries quarantined as <key>.corrupt

    # -- core API ----------------------------------------------------------------

    def get(self, scenario: Scenario) -> ScenarioResult | None:
        """The cached result for this scenario, or None (miss/uncacheable)."""
        if not cacheable(scenario):
            self.skipped += 1
            return None
        try:
            key = scenario_key(scenario)
        except TypeError:
            # e.g. numpy-scalar workload params: the scenario runs fine, it
            # just cannot be canonically hashed — bypass transparently.
            self.skipped += 1
            return None
        if self.path is None:
            result = self._memory.get(key)
        else:
            result = self._read_file(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, result: ScenarioResult) -> bool:
        """Store one result; returns False when it cannot be cached."""
        if not cacheable(result.scenario):
            self.skipped += 1
            return False
        if result.error is not None or not isinstance(result.sim, ClusterSimResult):
            # Failed results are never memoized: a retry/resume must re-run
            # the scenario, not replay the failure.
            self.skipped += 1
            return False
        try:
            key = scenario_key(result.scenario)
        except TypeError:
            self.skipped += 1
            return False
        if self.path is None:
            self._memory[key] = result
            return True
        try:
            payload = _result_to_payload(result)
            text = json.dumps(payload)
        except TypeError:
            # e.g. a collector payload holding a non-serializable object.
            self.skipped += 1
            return False
        # Write-then-rename so concurrent readers never see partial JSON.
        if not write_atomic(self._file(key), text.encode()):
            # Unwritable directory / disk full: the caller (and stats())
            # must see that nothing was persisted.
            self.skipped += 1
            return False
        return True

    def clear(self) -> None:
        """Drop every entry (memory and, for disk caches, the files)."""
        self._memory.clear()
        if self.path is not None:
            for f in self._entries():
                try:
                    f.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        if self.path is None:
            return len(self._memory)
        return sum(1 for _ in self._entries())

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skipped": self.skipped,
            "corrupt": self.corrupt,
            "entries": len(self),
            "backend": "disk" if self.path is not None else "memory",
        }

    # -- disk backend ------------------------------------------------------------

    def _entries(self):
        """Only files this cache wrote: ``<64-hex-sha256>.json``.

        The cache directory may be shared with unrelated files (users point
        ``REPRO_SWEEP_CACHE_DIR`` at existing locations); ``clear()`` and
        ``len()`` must never touch anything that is not a cache entry.
        A directory that does not exist yet (lazy creation) yields nothing.
        """
        assert self.path is not None
        if not self.path.is_dir():
            return
        for f in self.path.glob("*.json"):
            stem = f.stem
            if len(stem) == 64 and all(c in "0123456789abcdef" for c in stem):
                yield f

    def _file(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.json"

    def _read_file(self, key: str) -> ScenarioResult | None:
        try:
            text = self._file(key).read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
            if payload.get("version") != CACHE_FORMAT_VERSION:
                return None  # older layout: a clean miss, never re-parsed as corrupt
            return _payload_to_result(payload)
        except (ValueError, KeyError, TypeError, SimulationError):
            # Corrupt entry (torn write, hand-edited, shape drift): quarantine
            # it as <key>.corrupt so it is not re-parsed on every lookup and
            # stays available for post-mortem; the lookup is a miss and the
            # scenario re-runs, overwriting the slot with a fresh entry.
            self._quarantine(key)
            return None

    def _quarantine(self, key: str) -> None:
        self.corrupt += 1
        try:
            os.replace(self._file(key), self.path / f"{key}.corrupt")
        except OSError:
            pass  # e.g. unlinked concurrently; the miss already re-runs it
