"""The scheduling table of a controller processor (Phase 2).

The table records the identifier and start time of every job produced by the
offline scheduling methods, plus a per-task *enable* bit set at run time by
I/O requests arriving through the request channel.  The synchroniser walks the
table in start-time order and triggers the execution of due entries.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """A capacity-bounded, start-time-ordered table of scheduled jobs.

    The table keeps its decisions as three columns (task names, job indexes,
    start times) in ``(start_time, task_name, job_index)`` order.  Phase 2
    fills it at once with :meth:`replace`, and the one-pass controller reads
    the columns (:meth:`columns`).  :meth:`load` adds one decision, and
    :meth:`entries` and :meth:`due_entries` hand out :class:`TableEntry`
    objects, for the event-driven run and other callers.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        #: The decisions as columns, or ``None`` after a :meth:`load` until
        #: the next read; then ``_starts`` (job key -> start) holds them.
        self._columns: Optional[Tuple[List[str], List[int], List[int]]] = ([], [], [])
        self._starts: Optional[Dict[Tuple[str, int], int]] = None
        self._enabled: Dict[str, bool] = {}
        #: Start time -> the entries due then, in ``(start_time, key)`` order.
        #: Built on the first ``due_entries`` call after a change, so a run
        #: sorts the table once instead of once per trigger.
        self._due: Optional[Dict[int, List[TableEntry]]] = None

    def __len__(self) -> int:
        if self._columns is None:
            return len(self._starts)
        return len(self._columns[0])

    # -- offline loading ------------------------------------------------------

    def replace(self, tasks: List[str], jobs: List[int], starts: List[int]) -> None:
        """Make these decisions the whole table, and clear the enable bits.

        The columns list one decision per job, in ``(start, task, index)``
        order, and are kept as given.
        """
        if len(tasks) > self.capacity:
            raise OverflowError(
                f"scheduling table capacity ({self.capacity} entries) exceeded"
            )
        self._columns = (tasks, jobs, starts)
        self._starts = None
        self._enabled = {}
        self._due = None

    def load(self, entry: TableEntry) -> None:
        """Store one scheduling decision (sent from the application processors)."""
        if self._starts is None:
            tasks, jobs, starts = self._columns
            self._starts = dict(zip(zip(tasks, jobs), starts))
        if entry.key not in self._starts and len(self._starts) >= self.capacity:
            raise OverflowError(
                f"scheduling table capacity ({self.capacity} entries) exceeded"
            )
        self._starts[entry.key] = entry.start_time
        self._enabled.setdefault(entry.task_name, False)
        self._columns = None
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

    def columns(self) -> Tuple[List[str], List[int], List[int]]:
        """Task names, job indexes and start times of every entry, in
        ``(start_time, task_name, job_index)`` order (shared lists: do not
        modify them)."""
        if self._columns is None:
            ordered = sorted(self._starts.items(), key=lambda item: (item[1], item[0]))
            self._columns = (
                [key[0] for key, _ in ordered],
                [key[1] for key, _ in ordered],
                [start for _, start in ordered],
            )
        return self._columns

    def entries(self) -> List[TableEntry]:
        """All entries ordered by start time."""
        return [TableEntry(*entry) for entry in zip(*self.columns())]

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
        return min((start for start in self.columns()[2] if start > time), default=None)
