"""Event-driven processor-sharing queueing network with fork-join requests.

This is the workhorse behind the paper's application-level experiments:

* a single station models the Wikipedia VM (Figures 16/17);
* replicated stations behind a load balancer model the web cluster
  (Figure 19);
* a 30-station network models the DeathStarBench social-network application
  (Figure 18).

**Station model.**  Each station is an egalitarian processor-sharing server
with (possibly fractional, possibly deflated) capacity ``c`` cores: with
``n`` resident tasks, every task progresses at rate ``min(1, c/n)`` — a task
can use at most one core, and capacity is split evenly under contention.
This is the standard model of a multi-core server running many
request-handler threads, and it is what CPU deflation actually does to a VM:
fewer cores, same threads, each thread slower under load.

The implementation uses the virtual-time trick: all resident tasks progress
at the same rate, so completion order equals the order of
``V(arrival) + demand`` where ``dV/dt = min(1, c/n)``.  Station wake-ups are
scheduled lazily and re-validated when they fire, so arrivals and departures
that change the rate never require rescheduling existing events.

**Request model.**  A request executes a *plan*: a sequence of
:class:`Visit` steps (run ``demand`` CPU-seconds at a station) and
:class:`Fork` steps (run several sub-plans in parallel; the request proceeds
when all branches finish — fork-join, the pattern that gives microservice
applications their latency-amplifying tails).  Requests may carry a
deadline; timed-out requests are *dropped*: their active tasks are removed
from all stations (an abandoned HTTP request stops consuming CPU once the
proxy kills it).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Union

import numpy as np

from repro.errors import SimulationError


class EventQueue:
    """A priority queue of timestamped events with deterministic tie-breaks.

    Events scheduled at equal times fire in scheduling order (FIFO), which
    keeps simulations reproducible run-to-run.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, time: float, payload: Any) -> None:
        """Add an event; times in the past are a logic error."""
        if time < self.now - 1e-9:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        heapq.heappush(self._heap, (time, next(self._counter), payload))

    def pop(self) -> tuple[float, Any]:
        """Remove and return the next (time, payload), advancing the clock."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        time, _, payload = heapq.heappop(self._heap)
        self.now = time
        return time, payload

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass(frozen=True)
class Visit:
    """Run ``demand`` CPU-seconds of work at ``station``."""

    station: str
    demand: float


@dataclass(frozen=True)
class Fork:
    """Execute branches in parallel; join before the plan continues."""

    branches: tuple[tuple["Plan", ...], ...]


Step = Union[Visit, Fork]
Plan = tuple


@dataclass
class _Context:
    """One sequential frame of a request's execution (a plan + position)."""

    plan: tuple
    index: int
    parent: "_Context | None"
    pending_children: int = 0


@dataclass
class _Request:
    req_id: int
    arrival: float
    deadline: float | None
    root: _Context
    done: bool = False
    dropped: bool = False
    active_tasks: set = field(default_factory=set)  # (station, task_id)


class _Station:
    """Egalitarian PS station with virtual-time bookkeeping."""

    __slots__ = (
        "name",
        "capacity",
        "vtime",
        "last_update",
        "targets",
        "heap",
        "busy_time",
        "completed_work",
        "wake_seq",
        "wake_time",
    )

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"station {name} needs capacity > 0")
        self.name = name
        self.capacity = float(capacity)
        self.vtime = 0.0
        self.last_update = 0.0
        self.targets: dict[int, float] = {}  # task_id -> target virtual time
        self.heap: list[tuple[float, int]] = []
        self.busy_time = 0.0  # integral of occupied capacity, for utilization
        self.completed_work = 0.0
        # Wake dedup: only the wake carrying the current wake_seq is live, so
        # each station has at most one actionable wake pending at a time.
        self.wake_seq = 0
        self.wake_time: float | None = None

    @property
    def n_active(self) -> int:
        return len(self.targets)

    def rate(self) -> float:
        n = self.n_active
        if n == 0:
            return 0.0
        return min(1.0, self.capacity / n)

    def advance(self, now: float) -> None:
        """Bring virtual time forward to wall-clock ``now``."""
        dt = now - self.last_update
        if dt < -1e-9:
            raise SimulationError("time went backwards in station.advance")
        if dt > 0:
            n = self.n_active
            if n:
                r = self.rate()
                self.vtime += dt * r
                self.busy_time += dt * min(self.capacity, n)
            self.last_update = now

    def add_task(self, now: float, task_id: int, demand: float) -> None:
        self.advance(now)
        target = self.vtime + max(demand, 1e-12)
        self.targets[task_id] = target
        heapq.heappush(self.heap, (target, task_id))

    def remove_task(self, now: float, task_id: int) -> None:
        """Withdraw a task (request timed out); lazily drops heap entries."""
        self.advance(now)
        self.targets.pop(task_id, None)

    def pop_finished(self, now: float) -> list[int]:
        """Complete every resident task whose target vtime has passed."""
        self.advance(now)
        finished = []
        while self.heap and self.heap[0][0] <= self.vtime + 1e-12:
            target, task_id = heapq.heappop(self.heap)
            current = self.targets.get(task_id)
            if current is None or abs(current - target) > 1e-12:
                continue  # stale entry (task removed or re-registered)
            del self.targets[task_id]
            finished.append(task_id)
        return finished

    def next_completion_time(self, now: float) -> float | None:
        """Predicted wall time of the earliest completion, if any."""
        self.advance(now)
        while self.heap:
            target, task_id = self.heap[0]
            current = self.targets.get(task_id)
            if current is None or abs(current - target) > 1e-12:
                heapq.heappop(self.heap)
                continue
            r = self.rate()
            if r <= 0:
                return None
            return now + max(0.0, (target - self.vtime) / r)
        return None


@dataclass
class NetworkResult:
    """Outcome of one simulation run."""

    response_times: np.ndarray  # completed requests only
    arrival_times: np.ndarray  # arrival times of completed requests
    n_arrived: int
    n_completed: int
    n_dropped: int
    duration: float
    station_utilization: dict[str, float]
    #: Integral of occupied capacity (core-seconds) per station; divide by
    #: (capacity * window) for utilization over a window of your choosing —
    #: ``station_utilization`` uses the full drain-out duration, which
    #: understates load for runs with long timeout tails.
    station_busy_time: dict[str, float] = field(default_factory=dict)

    @property
    def served_fraction(self) -> float:
        return self.n_completed / self.n_arrived if self.n_arrived else 1.0

    @property
    def mean_response(self) -> float:
        return float(self.response_times.mean()) if self.response_times.size else float("nan")

    def percentile(self, p: float) -> float:
        if not self.response_times.size:
            return float("nan")
        return float(np.percentile(self.response_times, p))


# Event kinds on the global queue.
_ARRIVAL, _WAKE, _TIMEOUT = 0, 1, 2


class PSNetwork:
    """A processor-sharing network driven by an open arrival stream."""

    def __init__(self, capacities: dict[str, float]) -> None:
        if not capacities:
            raise SimulationError("network needs at least one station")
        self._stations = {name: _Station(name, cap) for name, cap in capacities.items()}
        self._queue = EventQueue()
        self._requests: dict[int, _Request] = {}
        self._task_owner: dict[int, tuple[_Request, _Context]] = {}
        self._next_task_id = 0
        self._completed: list[tuple[float, float]] = []  # (arrival, response)
        self._n_arrived = 0
        self._n_dropped = 0

    # -- public API -------------------------------------------------------------

    def set_capacity(self, station: str, capacity: float, now: float = 0.0) -> None:
        """Change a station's capacity mid-run (deflation/reinflation)."""
        st = self._station(station)
        st.advance(now)
        if capacity <= 0:
            raise SimulationError("capacity must stay > 0")
        st.capacity = float(capacity)
        self._schedule_wake(station, now)

    def offer(self, arrival: float, plan: tuple, deadline: float | None = None) -> None:
        """Register one request: a plan starting at ``arrival``."""
        if not plan:
            raise SimulationError("request plan cannot be empty")
        self._queue.schedule(arrival, (_ARRIVAL, plan, deadline))

    def run(self, until: float | None = None) -> NetworkResult:
        """Process all scheduled work; returns aggregate metrics."""
        while self._queue:
            peek = self._queue.peek_time()
            if until is not None and peek is not None and peek > until:
                break
            now, event = self._queue.pop()
            kind = event[0]
            if kind == _ARRIVAL:
                self._handle_arrival(now, event[1], event[2])
            elif kind == _WAKE:
                self._handle_wake(now, event[1], event[2])
            else:
                self._handle_timeout(now, event[1])
        end = self._queue.now if until is None else max(self._queue.now, until)
        responses = np.array([r for _, r in self._completed])
        arrivals = np.array([a for a, _ in self._completed])
        util = {
            name: (st.busy_time / (st.capacity * end) if end > 0 else 0.0)
            for name, st in self._stations.items()
        }
        return NetworkResult(
            response_times=responses,
            arrival_times=arrivals,
            n_arrived=self._n_arrived,
            n_completed=len(self._completed),
            n_dropped=self._n_dropped,
            duration=end,
            station_utilization=util,
            station_busy_time={n: st.busy_time for n, st in self._stations.items()},
        )

    # -- internals ---------------------------------------------------------------

    def _station(self, name: str) -> _Station:
        try:
            return self._stations[name]
        except KeyError:
            raise SimulationError(f"unknown station {name!r}") from None

    def _handle_arrival(self, now: float, plan: tuple, deadline: float | None) -> None:
        self._n_arrived += 1
        req = _Request(
            req_id=self._n_arrived,
            arrival=now,
            deadline=(now + deadline) if deadline is not None else None,
            root=_Context(plan=tuple(plan), index=0, parent=None),
        )
        self._requests[req.req_id] = req
        if req.deadline is not None:
            self._queue.schedule(req.deadline, (_TIMEOUT, req.req_id))
        self._advance_context(now, req, req.root)

    def _advance_context(self, now: float, req: _Request, ctx: _Context) -> None:
        """Execute steps of a context until it blocks on a visit or fork."""
        while True:
            if req.done or req.dropped:
                return
            if ctx.index >= len(ctx.plan):
                parent = ctx.parent
                if parent is None:
                    self._complete_request(now, req)
                    return
                parent.pending_children -= 1
                if parent.pending_children > 0:
                    return  # sibling branches still running
                ctx = parent
                continue
            step = ctx.plan[ctx.index]
            ctx.index += 1
            if isinstance(step, Visit):
                self._start_task(now, req, ctx, step)
                return
            if isinstance(step, Fork):
                branches = [b for b in step.branches if b]
                if not branches:
                    continue
                ctx.pending_children = len(branches)
                for branch in branches:
                    child = _Context(plan=tuple(branch), index=0, parent=ctx)
                    self._advance_context(now, req, child)
                return
            raise SimulationError(f"unknown plan step {step!r}")

    def _start_task(self, now: float, req: _Request, ctx: _Context, visit: Visit) -> None:
        task_id = self._next_task_id
        self._next_task_id += 1
        self._task_owner[task_id] = (req, ctx)
        req.active_tasks.add((visit.station, task_id))
        station = self._station(visit.station)
        station.add_task(now, task_id, visit.demand)
        self._schedule_wake(visit.station, now)

    def _schedule_wake(self, station_name: str, now: float) -> None:
        """(Re)arm the station's single pending wake if the prediction moved.

        Keeping at most one live wake per station bounds the event count at
        O(arrivals + completions) — naive rescheduling accumulates no-op
        wake chains under overload.
        """
        station = self._station(station_name)
        when = station.next_completion_time(now)
        if when is None:
            station.wake_seq += 1  # cancel any pending wake
            station.wake_time = None
            return
        when = max(when, now)
        if station.wake_time is not None and station.wake_time <= when + 1e-12:
            return  # the pending wake fires early enough; it will re-arm
        station.wake_seq += 1
        station.wake_time = when
        self._queue.schedule(when, (_WAKE, station_name, station.wake_seq))

    def _handle_wake(self, now: float, station_name: str, seq: int) -> None:
        station = self._station(station_name)
        if seq != station.wake_seq:
            return  # superseded by a newer wake
        station.wake_time = None
        for task_id in station.pop_finished(now):
            owner = self._task_owner.pop(task_id, None)
            if owner is None:
                continue
            req, ctx = owner
            req.active_tasks.discard((station_name, task_id))
            station.completed_work += 1
            if not (req.done or req.dropped):
                self._advance_context(now, req, ctx)
        self._schedule_wake(station_name, now)

    def _handle_timeout(self, now: float, req_id: int) -> None:
        req = self._requests.get(req_id)
        if req is None or req.done or req.dropped:
            return
        req.dropped = True
        self._n_dropped += 1
        for station_name, task_id in list(req.active_tasks):
            self._station(station_name).remove_task(now, task_id)
            self._task_owner.pop(task_id, None)
            # Removing a task raises everyone else's rate: re-predict.
            self._schedule_wake(station_name, now)
        req.active_tasks.clear()
        del self._requests[req_id]

    def _complete_request(self, now: float, req: _Request) -> None:
        req.done = True
        self._completed.append((req.arrival, now - req.arrival))
        self._requests.pop(req.req_id, None)
