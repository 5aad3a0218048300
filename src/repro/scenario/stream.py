"""Step a live scenario: bounded-memory streaming over long traces.

:class:`ScenarioStream` is the interactive/service-mode face of the
checkpoint machinery: build a scenario once, then :meth:`advance` the
replay boundary step by step — snapshotting (:meth:`snapshot`), forking
what-if branches mid-flight, or finishing (:meth:`result`) at any point.
With ``compact=True`` each advance also finalizes the metric terms of VMs
that ended behind the boundary and drops their allocation-history rows, so
a month-long trace streams through in memory proportional to the *live*
population instead of the whole trace — with the final result still
bit-identical to a one-shot ``scenario.run()``
(``tests/scenario/test_stream.py`` pins this).

Only the ``cluster-sim`` engine streams: the sharded engine's per-pool
workers have no single event boundary to stop at.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.scenario.results import ScenarioResult
from repro.scenario.scenario import Scenario

__all__ = ["ScenarioStream", "StreamTick"]


@dataclass(frozen=True)
class StreamTick:
    """One :meth:`ScenarioStream.advance` step's progress report."""

    #: The stream boundary after the step: every event strictly before it
    #: has been processed.
    t: float
    #: Committed CPU cores across the cluster at the boundary.
    committed_cores: float
    #: VMs whose metric terms have been finalized by compaction so far
    #: (0 when the stream does not compact).
    finalized_vms: int
    #: Live allocation-history rows after the step (the bounded-memory
    #: quantity: without compaction it only ever grows).
    history_rows: int


class ScenarioStream:
    """A scenario advancing through its trace under caller control.

    >>> stream = ScenarioStream(scenario, compact=True)
    >>> for boundary in range(0, horizon, 1000):
    ...     tick = stream.advance(boundary)
    >>> result = stream.result()   # == scenario.run(), bit for bit

    ``compact=True`` bounds memory by finalizing ended VMs' metric terms
    and dropping their history rows at each advance (``compact_lag``
    intervals behind the boundary, leaving requeue/restart races a grace
    window).  :meth:`snapshot` freezes the current boundary for
    :meth:`Scenario.with_checkpoint` /
    :func:`~repro.scenario.sweep.fork_sweep`.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        compact: bool = False,
        compact_lag: float = 0.0,
    ) -> None:
        if scenario.engine != "cluster-sim":
            raise SimulationError(
                f"only the 'cluster-sim' engine streams; scenario uses {scenario.engine!r}"
            )
        if compact_lag < 0.0:
            raise SimulationError("compact_lag must be >= 0")
        from repro.scenario.engine import ClusterSimEngine

        self.scenario = scenario
        self._sim = ClusterSimEngine().build(scenario)
        self._compact = bool(compact)
        self._lag = float(compact_lag)
        self._result: ScenarioResult | None = None

    @property
    def at(self) -> float:
        """The current stream boundary (0.0 before the first advance)."""
        stream = self._sim._stream
        return 0.0 if stream is None else float(stream["at"])

    def advance(self, until: float) -> StreamTick:
        """Process every event strictly before ``until``; returns a tick."""
        if self._result is not None:
            raise SimulationError("stream already finished; build a new one")
        sim = self._sim
        sim.run_until(until)
        if self._compact:
            sim.compact_history(max(0.0, float(until) - self._lag))
        final = sim._final_terms
        return StreamTick(
            t=self.at,
            committed_cores=float(sim._committed_cores),
            finalized_vms=0 if final is None else int(final["mask"].sum()),
            history_rows=int(sim._hist_n),
        )

    def snapshot(self):
        """Freeze the current boundary as a ``SimSnapshot``."""
        if self._result is not None:
            raise SimulationError("stream already finished; nothing left to snapshot")
        self._sim.run_until(self.at)  # opens the stream; processes nothing
        return self._sim.snapshot()

    def result(self) -> ScenarioResult:
        """Finish the remainder and collect (idempotent once finished)."""
        if self._result is None:
            self._result = ScenarioResult(scenario=self.scenario, sim=self._sim.run())
        return self._result
