"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(30, lambda: fired.append("c"))
        queue.push(10, lambda: fired.append("a"))
        queue.push(20, lambda: fired.append("b"))
        while queue:
            queue.pop().action()
        assert fired == ["a", "b", "c"]

    def test_same_time_ordered_by_priority_then_insertion(self):
        queue = EventQueue()
        order = []
        queue.push(5, lambda: order.append("late"), priority=1)
        queue.push(5, lambda: order.append("early"), priority=0)
        queue.push(5, lambda: order.append("late2"), priority=1)
        while queue:
            queue.pop().action()
        assert order == ["early", "late", "late2"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1, lambda: fired.append("keep"))
        cancel = queue.push(2, lambda: fired.append("cancel"))
        queue.cancel(cancel)
        assert len(queue) == 1
        while queue:
            queue.pop().action()
        assert fired == ["keep"]

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(42, lambda: None)
        assert queue.peek_time() == 42

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, lambda: None)

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancelling_a_fired_or_cancelled_event_does_nothing(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None)
        second = queue.push(2, lambda: None)
        assert queue.pop() is first
        queue.cancel(first)
        assert len(queue) == 1
        assert queue
        assert queue.peek_time() == 2
        queue.cancel(second)
        queue.cancel(second)
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None
        third = queue.push(3, lambda: None)
        assert len(queue) == 1
        assert queue.pop() is third
