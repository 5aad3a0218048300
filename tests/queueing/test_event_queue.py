"""Tests for the queueing network's event queue."""

import pytest

from repro.errors import SimulationError
from repro.queueing.network import EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.schedule(3.0, "c")
        q.schedule(1.0, "a")
        q.schedule(2.0, "b")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_for_ties(self):
        q = EventQueue()
        for label in "abc":
            q.schedule(1.0, label)
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_clock_advances(self):
        q = EventQueue()
        q.schedule(5.0, None)
        q.pop()
        assert q.now == 5.0

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5.0, None)
        q.pop()
        with pytest.raises(SimulationError):
            q.schedule(1.0, None)

    def test_pop_empty(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(1.0, None)
        assert q.peek_time() == 1.0
        assert len(q) == 1 and bool(q)
