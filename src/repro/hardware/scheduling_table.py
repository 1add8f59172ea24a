"""The scheduling table of a controller processor (Phase 2).

The table records the identifier and start time of every job produced by the
offline scheduling methods, plus a per-task *enable* bit set at run time by
I/O requests arriving through the request channel.  The synchroniser walks the
table in start-time order and triggers the execution of due entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TableEntry:
    """One scheduled job: task identifier, job index and start time."""

    task_name: str
    job_index: int
    start_time: int

    @property
    def key(self) -> Tuple[str, int]:
        return (self.task_name, self.job_index)


class SchedulingTable:
    """A capacity-bounded, start-time-ordered table of scheduled jobs."""

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[Tuple[str, int], TableEntry] = {}
        self._enabled: Dict[str, bool] = {}
        #: Start time -> the entries due then, in ``(start_time, key)`` order.
        #: Built on the first ``due_entries`` call after a ``load``, so a run
        #: sorts the table once instead of once per trigger.
        self._due: Optional[Dict[int, List[TableEntry]]] = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- offline loading ------------------------------------------------------

    def load(self, entry: TableEntry) -> None:
        """Store one scheduling decision (sent from the application processors)."""
        if entry.key not in self._entries and len(self._entries) >= self.capacity:
            raise OverflowError(
                f"scheduling table capacity ({self.capacity} entries) exceeded"
            )
        self._entries[entry.key] = entry
        self._enabled.setdefault(entry.task_name, False)
        self._due = None

    def load_many(self, entries) -> None:
        for entry in entries:
            self.load(entry)

    # -- run-time interface -----------------------------------------------------

    def enable(self, task_name: str) -> None:
        """Set the enable bit of a task (an I/O request for it has been received)."""
        self._enabled[task_name] = True

    def disable(self, task_name: str) -> None:
        self._enabled[task_name] = False

    def is_enabled(self, task_name: str) -> bool:
        return self._enabled.get(task_name, False)

    def entries(self) -> List[TableEntry]:
        """All entries ordered by start time."""
        return sorted(self._entries.values(), key=lambda e: (e.start_time, e.key))

    def entries_for(self, task_name: str) -> List[TableEntry]:
        return [entry for entry in self.entries() if entry.task_name == task_name]

    def due_entries(self, time: int) -> List[TableEntry]:
        """Entries whose start time equals ``time`` (to be triggered now)."""
        if self._due is None:
            due: Dict[int, List[TableEntry]] = {}
            for entry in self.entries():
                due.setdefault(entry.start_time, []).append(entry)
            self._due = due
        return list(self._due.get(time, ()))

    def next_start_after(self, time: int) -> Optional[int]:
        """The earliest start time strictly greater than ``time``, if any."""
        future = [entry.start_time for entry in self._entries.values() if entry.start_time > time]
        return min(future) if future else None
