"""In-memory span recorder for the end-to-end benchmark.

A span is one timed call into the program: its name, start and end
(``time.perf_counter``, which is the system-wide monotonic clock on Linux,
so spans from forked workers line up with the parent's), the span that was
open when it began (its parent), and the run id of the pass it belongs to.
Spans stay in memory as plain tuples, which the cyclic garbage collector
stops tracking, so hundreds of thousands of them do not slow the replay
they measure; they are written out as JSONL when the run ends.

Worker processes forked by the supervised runtime inherit the recorder
together with the parent's open-span stack, so a worker's first span hangs
under the parent's ``runtime.map`` span.  After each task a worker appends
its closed spans to a per-PID file in the spill directory; the parent
absorbs those files when the map returns.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    #: Counts taken at the same boundary (``None`` for most spans).
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans for one benchmark process and the workers it forks."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.root_pid = os.getpid()
        #: Run id stamped on every new span (set by the harness per pass).
        self.run = ""
        #: Closed spans.  The list object never changes (wrappers hold it).
        self.spans: list[Span] = []
        #: ``(id, name)`` of the open spans, innermost last.
        self._stack: list[tuple[int, str]] = []
        self._pid = self.root_pid
        self._ids = itertools.count(self._pid * 10**9)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.spill_dir.glob("spans-*.jsonl"):
            stale.unlink()

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)`` adds counts.

        A call made while a span of the same name is innermost is not
        recorded again (a subclass method calling its wrapped parent), so
        one logical call is one span.  A call that raises records no span.
        """
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            spans.append(Span(span_id, name, start, end, parent, self.run, extra))
            return result

        return wrapper

    # -- fork hand-off -----------------------------------------------------------

    def adopt(self) -> None:
        """Called at the top of every task: in a freshly forked worker, drop
        the parent's closed spans (the parent keeps its own copy) but keep
        its open-span stack, so worker spans nest under the map span."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._ids = itertools.count(pid * 10**9)
            self.spans.clear()

    def spill(self) -> None:
        """Worker side: append closed spans to this PID's file and forget them."""
        if self._pid == self.root_pid or not self.spans:
            return
        with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a") as fh:
            fh.writelines(json.dumps(span._asdict()) + "\n" for span in self.spans)
        self.spans.clear()

    def absorb(self) -> None:
        """Parent side: merge every worker's spill file, then delete it."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            path.unlink()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.writelines(json.dumps(span._asdict()) + "\n" for span in self.spans)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may overlap when they ran in parallel workers, so
    the covered part is the union of the children's intervals, clipped to
    the parent's.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result
