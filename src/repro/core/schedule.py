"""Explicit offline schedules for timed I/O jobs.

A :class:`Schedule` maps every job of a (per-device) partition to an actual
start time ``kappa_i^j`` over one hyper-period.  The paper's schedulers (the
heuristic of Algorithm 1 and the GA search) produce such schedules offline;
the I/O-controller hardware model (``repro.hardware``) later executes them at
run time.

The run-time layer reads a device schedule in a flat form,
:class:`FlatSchedule`: each job's task position, job index and start time
as int vectors.  :meth:`FlatSchedule.from_schedule` and
:meth:`FlatSchedule.to_schedule` convert between the two forms.

The module also provides schedule validation for the two execution-model
constraints of Section III-B:

* **Constraint 1** — every job starts within its release window and finishes
  before its deadline: ``T_i*j <= kappa_i^j <= T_i*j + D_i - C_i``.
* **Constraint 2** — jobs on the same device never overlap (non-preemptive,
  single execution unit per device).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.task import IOJob, IOTask, TaskSet


class ScheduleValidationError(Exception):
    """Raised when a schedule violates the execution-model constraints."""


@dataclass(frozen=True)
class ScheduleEntry:
    """One scheduled job: the job plus its assigned start time ``kappa``."""

    job: IOJob
    start: int

    @property
    def finish(self) -> int:
        return self.start + self.job.wcet

    @property
    def is_exact(self) -> bool:
        """Whether the job starts exactly at its ideal start time."""
        return self.start == self.job.ideal_start

    @property
    def lateness(self) -> int:
        """Signed distance from the ideal start time (positive = late)."""
        return self.start - self.job.ideal_start

    @property
    def quality(self) -> float:
        cached = self.__dict__.get("_quality")
        if cached is None:
            cached = self.job.quality(self.start)
            object.__setattr__(self, "_quality", cached)
        return cached


class Schedule:
    """An explicit assignment of start times to jobs on a single I/O device."""

    def __init__(self, entries: Iterable[ScheduleEntry] = (), device: Optional[str] = None):
        self._entries: Dict[Tuple[str, int], ScheduleEntry] = {}
        self._sorted_cache: Optional[List[ScheduleEntry]] = None
        self.device = device
        for entry in entries:
            self.add(entry)

    # -- construction -----------------------------------------------------

    def add(self, entry: ScheduleEntry) -> None:
        """Add (or replace) the entry for a job."""
        if self.device is None:
            self.device = entry.job.device
        elif entry.job.device != self.device:
            raise ScheduleValidationError(
                f"job {entry.job.name} targets device {entry.job.device!r} but the "
                f"schedule is for device {self.device!r}"
            )
        if self._sorted_cache is not None:
            if entry.job.key in self._entries:
                # Replacing an entry moves it; cheaper to re-sort lazily.
                self._sorted_cache = None
            else:
                insort(self._sorted_cache, entry, key=lambda e: (e.start, e.job.key))
        self._entries[entry.job.key] = entry

    def set_start(self, job: IOJob, start: int) -> None:
        """Assign ``start`` as the start time of ``job``."""
        self.add(ScheduleEntry(job=job, start=int(start)))

    @classmethod
    def from_mapping(cls, mapping: Dict[IOJob, int], device: Optional[str] = None) -> "Schedule":
        return cls(
            (ScheduleEntry(job=job, start=int(start)) for job, start in mapping.items()),
            device=device,
        )

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return iter(self.sorted_entries())

    def __contains__(self, job: IOJob) -> bool:
        return job.key in self._entries

    @property
    def entries(self) -> List[ScheduleEntry]:
        return list(self._entries.values())

    def sorted_entries(self) -> List[ScheduleEntry]:
        """Entries ordered by start time (ties broken by job identity)."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(
                self._entries.values(), key=lambda e: (e.start, e.job.key)
            )
        return list(self._sorted_cache)

    def start_of(self, job: IOJob) -> int:
        """Start time ``kappa`` assigned to ``job``."""
        try:
            return self._entries[job.key].start
        except KeyError:
            raise KeyError(f"job {job.name} is not in the schedule") from None

    def jobs(self) -> List[IOJob]:
        return [entry.job for entry in self.sorted_entries()]

    @property
    def makespan(self) -> int:
        """Latest finish time across all scheduled jobs (0 for an empty schedule)."""
        if not self._entries:
            return 0
        return max(entry.finish for entry in self._entries.values())

    # -- analysis ----------------------------------------------------------

    def busy_intervals(self) -> List[Tuple[int, int]]:
        """Sorted ``(start, finish)`` intervals during which the device is busy."""
        return [(e.start, e.finish) for e in self.sorted_entries()]

    def idle_intervals(self, horizon: int) -> List[Tuple[int, int]]:
        """Sorted idle (free-slot) intervals in ``[0, horizon)`` around the busy ones."""
        idle: List[Tuple[int, int]] = []
        cursor = 0
        for start, finish in self.busy_intervals():
            if start > cursor:
                idle.append((cursor, start))
            cursor = max(cursor, finish)
        if cursor < horizon:
            idle.append((cursor, horizon))
        return idle

    def copy(self) -> "Schedule":
        """An independent schedule with the same entries, order and device.

        The entries were checked when they were added, so the copy takes the
        entry table as it is.
        """
        clone = Schedule(device=self.device)
        clone._entries = dict(self._entries)
        return clone


@dataclass(frozen=True, eq=False)
class FlatSchedule:
    """A device schedule as int64 vectors, the form the run-time layer reads.

    Entry ``i`` starts job ``job[i]`` of task ``tasks[task[i]]`` at
    ``start[i]``.  The entries keep the order the schedule lists its jobs in
    (a :class:`Schedule`'s insertion order) and, as in a :class:`Schedule`,
    hold each job once.  A job's release and ideal start follow from its
    task and index, as for :meth:`IOTask.job <repro.core.task.IOTask.job>`.
    The flat schedules of one run share one task table ``tasks`` (normally
    the request's task set), so a job is the pair ``(task position, job
    index)`` throughout the run.
    """

    tasks: TaskSet
    task: np.ndarray
    job: np.ndarray
    start: np.ndarray
    device: Optional[str] = None

    def __len__(self) -> int:
        return len(self.start)

    @classmethod
    def from_schedule(cls, schedule: Schedule, tasks: TaskSet) -> "FlatSchedule":
        """``schedule`` over ``tasks``, which names every task its jobs belong
        to (:func:`task_table` builds such a table); tasks match by name, as
        :attr:`IOJob.key <repro.core.task.IOJob.key>` does."""
        index = tasks.name_index
        entries = schedule.entries
        return cls(
            tasks,
            np.array([index[entry.job.task.name] for entry in entries], dtype=np.int64),
            np.array([entry.job.index for entry in entries], dtype=np.int64),
            np.array([entry.start for entry in entries], dtype=np.int64),
            schedule.device,
        )

    def to_schedule(self) -> Schedule:
        """The object form: one :class:`ScheduleEntry` per entry, in order."""
        tasks = self.tasks
        return Schedule(
            (
                ScheduleEntry(job=tasks[task].job(job), start=start)
                for task, job, start in zip(
                    self.task.tolist(), self.job.tolist(), self.start.tolist()
                )
            ),
            device=self.device,
        )

    def take(self, rows) -> "FlatSchedule":
        """The entries at ``rows`` (an index array or mask), in that order."""
        return FlatSchedule(
            self.tasks, self.task[rows], self.job[rows], self.start[rows], self.device
        )

    def ideal_starts(self) -> np.ndarray:
        """Each job's ideal start, ``T_i * j + delta_i`` plus the task's offset."""
        columns = self.tasks.columns()
        task = self.task
        return columns.offset[task] + columns.period[task] * self.job + columns.ideal_offset[task]

    def table_order(self) -> "FlatSchedule":
        """The entries in ``(start, task name, index)`` order, the order of
        :meth:`Schedule.sorted_entries` and of a scheduling table; ``self``
        when they are listed in it already."""
        if len(self) < 2:
            return self
        start, job = self.start, self.job
        rank = self.tasks.columns().name_rank[self.task]
        same_start = start[:-1] == start[1:]
        same_task = rank[:-1] == rank[1:]
        in_order = (start[:-1] < start[1:]) | (
            same_start & ((rank[:-1] < rank[1:]) | (same_task & (job[:-1] < job[1:])))
        )
        if in_order.all():
            return self
        return self.take(np.lexsort((job, rank, start)))

    def starts_of(self, other: "FlatSchedule") -> Tuple[np.ndarray, np.ndarray]:
        """``(held, starts)``: for each job of ``other``, whether this schedule
        holds it and its start here (0 where it does not).  The two schedules
        share one task table."""
        if np.array_equal(self.task, other.task) and np.array_equal(self.job, other.job):
            return np.ones(len(other), dtype=bool), self.start
        if not len(self):
            return np.zeros(len(other), dtype=bool), np.zeros(len(other), dtype=np.int64)
        stride = int(max(self.job.max(), other.job.max(initial=0))) + 1
        mine = self.task * stride + self.job
        theirs = other.task * stride + other.job
        order = np.argsort(mine, kind="stable")
        rows = order[np.minimum(np.searchsorted(mine[order], theirs), len(mine) - 1)]
        held = mine[rows] == theirs
        return held, np.where(held, self.start[rows], 0)


def shared_tasks(schedules: Iterable[FlatSchedule], default: TaskSet) -> TaskSet:
    """The one task table ``schedules`` share (``default`` when there are
    none); schedules over different tables raise ``ValueError``."""
    tables = {id(schedule.tasks): schedule.tasks for schedule in schedules}
    if len(tables) > 1:
        raise ValueError("the flat schedules of one run must share one task table")
    return next(iter(tables.values()), default)


def task_table(schedules: Iterable[Schedule], tasks: Optional[TaskSet] = None) -> TaskSet:
    """A task table for flattening ``schedules``: ``tasks`` when its names
    cover every scheduled job's task, otherwise ``tasks`` followed by the
    tasks it lacks, in the order the schedules first name them."""
    known = tasks.name_index if tasks is not None else {}
    missing: Dict[str, IOTask] = {}
    for schedule in schedules:
        for entry in schedule.entries:
            name = entry.job.task.name
            if name not in known and name not in missing:
                missing[name] = entry.job.task
    if tasks is not None and not missing:
        return tasks
    return TaskSet([*(tasks or ()), *missing.values()])


def validate_schedule(
    schedule: Schedule,
    jobs: Optional[Sequence[IOJob]] = None,
    *,
    raise_on_error: bool = True,
) -> List[str]:
    """Check a schedule against the execution-model constraints.

    Parameters
    ----------
    schedule:
        The schedule to validate.
    jobs:
        If given, the complete set of jobs that *must* appear in the schedule
        (completeness check).  If omitted, only the scheduled jobs are checked.
    raise_on_error:
        If true (default), raise :class:`ScheduleValidationError` describing the
        first group of violations; otherwise return the list of violation
        messages (empty if the schedule is valid).
    """
    violations: List[str] = []

    if jobs is not None:
        scheduled_keys = {entry.job.key for entry in schedule.entries}
        for job in jobs:
            if job.key not in scheduled_keys:
                violations.append(f"job {job.name} is missing from the schedule")

    for entry in schedule.entries:
        job = entry.job
        if entry.start < job.release:
            violations.append(
                f"job {job.name} starts at {entry.start} before its release {job.release}"
            )
        if entry.finish > job.deadline:
            violations.append(
                f"job {job.name} finishes at {entry.finish} after its deadline {job.deadline}"
            )

    ordered = schedule.sorted_entries()
    for previous, current in zip(ordered, ordered[1:]):
        if current.start < previous.finish:
            violations.append(
                f"jobs {previous.job.name} and {current.job.name} overlap: "
                f"[{previous.start}, {previous.finish}) and [{current.start}, {current.finish})"
            )

    if violations and raise_on_error:
        raise ScheduleValidationError("; ".join(violations))
    return violations


class SystemSchedule:
    """A collection of per-device schedules for a fully-partitioned system."""

    def __init__(self, schedules: Optional[Dict[str, Schedule]] = None):
        self._schedules: Dict[str, Schedule] = dict(schedules or {})

    def __getitem__(self, device: str) -> Schedule:
        return self._schedules[device]

    def __setitem__(self, device: str, schedule: Schedule) -> None:
        self._schedules[device] = schedule

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._schedules))

    def __len__(self) -> int:
        return len(self._schedules)

    @property
    def devices(self) -> List[str]:
        return sorted(self._schedules)

    def all_entries(self) -> List[ScheduleEntry]:
        entries: List[ScheduleEntry] = []
        for device in self.devices:
            entries.extend(self._schedules[device].sorted_entries())
        return entries
