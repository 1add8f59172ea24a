"""Events and the time-ordered event queue of the simulation kernel."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


@dataclass(order=True, frozen=True)
class Event:
    """A scheduled simulation event.

    Events are ordered by ``(time, priority, sequence)``: earlier times first,
    then lower priority values, then insertion order — which makes simulation
    runs fully deterministic.
    """

    time: int
    priority: int
    sequence: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class EventQueue:
    """A heap-based future event list."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        #: Sequences of the events that have neither fired nor been cancelled.
        self._pending: set = set()

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(
        self,
        time: int,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute ``time``; returns the event handle."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(
            time=int(time),
            priority=priority,
            sequence=next(self._counter),
            action=action,
            label=label,
        )
        heapq.heappush(self._heap, event)
        self._pending.add(event.sequence)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (it will be skipped when popped).

        Cancelling an event that already fired or was already cancelled does
        nothing.
        """
        self._pending.discard(event.sequence)

    def pop(self) -> Optional[Event]:
        """Remove and return the next (non-cancelled) event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.sequence in self._pending:
                self._pending.discard(event.sequence)
                return event
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event without removing it."""
        while self._heap and self._heap[0].sequence not in self._pending:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None
