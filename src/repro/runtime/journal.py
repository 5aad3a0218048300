"""Resumable sweeps: an incremental on-disk journal of completed results.

``run_sweep`` used to persist nothing until the whole grid returned: an
interrupted 10-hour sweep re-ran from scratch.  A :class:`SweepJournal`
writes each completed result to disk *as it finishes* (pickle, one file
per entry, write-then-rename so a crash mid-write never leaves a torn
entry), bound to a fingerprint of the exact scenario list.  Resuming the
same sweep loads the journaled entries and executes only the remainder;
binding a *different* sweep to the same directory resets it, so a stale
journal can never leak results into the wrong grid.

Pickle round-trips results exactly (float bit patterns included), and
every simulator run is deterministic in its scenario, so a resumed sweep
is **bit-identical** to an uninterrupted cold run — the same warm == cold
discipline :class:`~repro.scenario.cache.SweepCache` upholds, extended to
scenarios the cache cannot hold (explicit in-memory traces).  Failed
tasks are never journaled: a resume retries them from a clean slate.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.errors import SimulationError

#: Bump when the on-disk layout changes; a journal written by another
#: version is reset on bind rather than misread.
JOURNAL_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"


def write_atomic(target: Path, payload: bytes) -> bool:
    """Write ``payload`` to ``target`` via a ``.tmp`` file and a rename.

    An interrupt mid-write leaves a ``.tmp`` file, never a torn file a
    reader could half-read.  Returns False (removing the ``.tmp`` file)
    when the directory or disk refuses the write.
    """
    tmp = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, target)
        return True
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return False


class SweepJournal:
    """One directory journaling one sweep's completed results by index.

    Usage (``run_sweep`` drives this automatically via ``journal=...``)::

        journal = SweepJournal(path)
        done = journal.bind(fingerprint, n_items)   # {} on a fresh/reset run
        ...
        journal.record(index, result)               # as each task completes

    ``bind`` attaches the journal to a specific sweep: when the stored
    manifest matches ``(fingerprint, n_items, version)`` the journaled
    entries are returned for reuse; any mismatch (different sweep, older
    layout, torn manifest) resets the directory.  Unreadable or torn
    entry files are dropped individually — the scenarios simply re-run.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path).expanduser()
        self._bound = False

    # -- binding -----------------------------------------------------------------

    def bind(self, fingerprint: str, n_items: int) -> dict[int, Any]:
        """Attach to a sweep; returns ``{index: value}`` of reusable entries."""
        manifest = self._read_manifest()
        expected = {
            "version": JOURNAL_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "n_items": n_items,
        }
        if manifest != expected:
            self._reset(expected)
            self._bound = True
            return {}
        self._bound = True
        done: dict[int, Any] = {}
        for index, file in self._entries():
            if index >= n_items:
                continue
            try:
                with open(file, "rb") as fh:
                    done[index] = pickle.load(fh)
            except Exception:
                # Torn or stale bytes surface as almost anything from
                # pickle.load (UnpicklingError, ValueError, EOFError,
                # AttributeError, ImportError...): drop the one entry and
                # let its task re-run.
                try:
                    file.unlink()
                except OSError:
                    pass
        return done

    def record(self, index: int, value: Any) -> bool:
        """Persist one completed value; returns False when it cannot be."""
        if not self._bound:
            raise SimulationError("journal must be bound to a sweep before recording")
        try:
            payload = pickle.dumps(value)
        except Exception:
            return False  # unpicklable result: the sweep still returns it
        return write_atomic(self._entry_file(index), payload)

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        """Drop every entry and the manifest (the next bind starts fresh)."""
        self._bound = False
        if not self.path.is_dir():
            return
        for _, file in self._entries():
            try:
                file.unlink()
            except OSError:
                pass
        try:
            (self.path / _MANIFEST).unlink()
        except OSError:
            pass

    # -- disk layout -------------------------------------------------------------

    def _entry_file(self, index: int) -> Path:
        return self.path / f"entry-{index:06d}.pkl"

    def _entries(self):
        """Only files this journal wrote: ``entry-<digits>.pkl``."""
        if not self.path.is_dir():
            return
        for file in sorted(self.path.glob("entry-*.pkl")):
            digits = file.stem.partition("-")[2]
            if digits.isdigit():
                yield int(digits), file

    def _read_manifest(self) -> dict | None:
        try:
            return json.loads((self.path / _MANIFEST).read_text())
        except (OSError, ValueError):
            return None

    def _reset(self, manifest: dict) -> None:
        for _, file in self._entries():
            try:
                file.unlink()
            except OSError:
                pass
        write_atomic(self.path / _MANIFEST, json.dumps(manifest).encode())
