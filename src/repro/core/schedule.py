"""Explicit offline schedules for timed I/O jobs.

A :class:`Schedule` maps every job of a (per-device) partition to an actual
start time ``kappa_i^j`` over one hyper-period.  The paper's schedulers (the
heuristic of Algorithm 1 and the GA search) produce such schedules offline;
the I/O-controller hardware model (``repro.hardware``) later executes them at
run time.

The module also provides schedule validation for the two execution-model
constraints of Section III-B:

* **Constraint 1** — every job starts within its release window and finishes
  before its deadline: ``T_i*j <= kappa_i^j <= T_i*j + D_i - C_i``.
* **Constraint 2** — jobs on the same device never overlap (non-preemptive,
  single execution unit per device).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.task import IOJob


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
