"""Object-based reference implementation of Algorithm 1 (test oracle).

``repro.scheduling`` runs the static heuristic on arrays: adjacency lists
and a lazy heap for the graph decomposition, start-sorted start/finish
vectors for LCC-D.  This module keeps the original object-walking version
so the property tests can check the array code against it for exact
equality:

* :func:`conflict_adjacency`, :func:`count_components` and
  :func:`decompose` against ``build_dependency_graphs`` and
  ``decompose_graphs`` (a pairwise overlap test instead of the sweep, a
  breadth-first search instead of the running-maximum component count, and
  a max-scan over every node per victim instead of the heap);
* :class:`LCCDAllocator` against ``repro.scheduling.lccd.LCCDAllocator``
  (schedules rebuilt from ``Schedule.idle_intervals`` after every
  placement; same entries in the same insertion order, same report);
* :class:`FreeSlot` and the slot helpers, which the reference allocator
  uses and ``test_slots.py`` covers.

The reference allocator raises ``ValueError`` when a kept job's ideal
execution ends after its deadline and packing it right opens an inverted
gap; the array allocator reports such a partition unschedulable, so the
comparisons draw ideal executions inside their release windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.task import IOJob
from repro.scheduling.lccd import AllocationReport

Key = Tuple[str, int]


# -- free slots ------------------------------------------------------------------


@dataclass(frozen=True)
class FreeSlot:
    """A maximal idle interval ``[start, end)`` on the device."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"slot end {self.end} precedes start {self.start}")

    @property
    def capacity(self) -> int:
        return self.end - self.start

    def overlap(self, window_start: int, window_end: int) -> "Optional[FreeSlot]":
        """Intersection of the slot with a time window, or ``None`` if empty."""
        lo = max(self.start, window_start)
        hi = min(self.end, window_end)
        if hi <= lo:
            return None
        return FreeSlot(lo, hi)

    def can_fit(self, job: IOJob) -> bool:
        """Whether the job can be fully executed inside the slot within its release window."""
        lo = self.start if self.start >= job.release else job.release
        hi = self.end if self.end <= job.deadline else job.deadline
        return hi > lo and hi - lo >= job.wcet

    def fit_start(self, job: IOJob, *, prefer_ideal: bool = False) -> Optional[int]:
        """Start time for the job inside this slot, or ``None`` if it does not fit.

        With ``prefer_ideal`` the start closest to the job's ideal start time
        is chosen; otherwise the earliest feasible start in the slot is used.
        """
        earliest = self.start if self.start >= job.release else job.release
        hi = self.end if self.end <= job.deadline else job.deadline
        if hi <= earliest or hi - earliest < job.wcet:
            return None
        if not prefer_ideal:
            return earliest
        latest = hi - job.wcet
        return min(max(job.ideal_start, earliest), latest)


def free_slots(schedule: Schedule, horizon: int) -> List[FreeSlot]:
    """Maximal idle intervals of ``schedule`` over ``[0, horizon)``."""
    return [FreeSlot(start, end) for start, end in schedule.idle_intervals(horizon)]


def slots_within_window(
    slots: Sequence[FreeSlot], window_start: int, window_end: int
) -> List[FreeSlot]:
    """Clip a list of slots to a time window, dropping empty intersections."""
    clipped: List[FreeSlot] = []
    for slot in slots:
        overlap = slot.overlap(window_start, window_end)
        if overlap is not None:
            clipped.append(overlap)
    return clipped


def total_capacity(slots: Sequence[FreeSlot]) -> int:
    """Sum of the capacities of the given slots."""
    return sum(slot.capacity for slot in slots)


# -- dependency graphs -------------------------------------------------------------


def conflict_adjacency(jobs: Sequence[IOJob]) -> Dict[Key, Set[Key]]:
    """Job key -> keys of the jobs whose ideal executions overlap it (all pairs)."""
    adjacency: Dict[Key, Set[Key]] = {job.key: set() for job in jobs}
    for i, job in enumerate(jobs):
        for other in jobs[i + 1:]:
            if job.overlaps_ideally_with(other):
                adjacency[job.key].add(other.key)
                adjacency[other.key].add(job.key)
    return adjacency


def count_components(adjacency: Dict[Key, Set[Key]]) -> int:
    """Number of connected components, by breadth-first search."""
    seen: Set[Key] = set()
    count = 0
    for root in adjacency:
        if root in seen:
            continue
        count += 1
        frontier = [root]
        seen.add(root)
        while frontier:
            node = frontier.pop()
            for other in adjacency[node] - seen:
                seen.add(other)
                frontier.append(other)
    return count


def decompose(jobs: Sequence[IOJob]) -> Tuple[List[IOJob], List[IOJob]]:
    """Phase 2 of Algorithm 1: ``(kept, sacrificed)`` by a max-scan per victim."""
    adjacency = conflict_adjacency(jobs)
    job_of = {job.key: job for job in jobs}
    sacrificed: List[IOJob] = []
    edges_remaining = sum(len(neighbours) for neighbours in adjacency.values()) // 2

    while edges_remaining:
        # Highest degree; ties towards the lowest priority, then the latest
        # ideal start, then the largest job key.
        victim_key = max(
            (key for key, neighbours in adjacency.items() if neighbours),
            key=lambda key: (
                len(adjacency[key]),
                -job_of[key].priority,
                job_of[key].ideal_start,
                key,
            ),
        )
        neighbours = adjacency.pop(victim_key)
        for other in neighbours:
            adjacency[other].discard(victim_key)
        edges_remaining -= len(neighbours)
        sacrificed.append(job_of[victim_key])

    kept = sorted(
        (job_of[key] for key in adjacency),
        key=lambda j: (j.ideal_start, j.key),
    )
    sacrificed.sort(key=lambda j: (-j.priority, j.ideal_start, j.key))
    return kept, sacrificed


# -- LCC-D ----------------------------------------------------------------------


class LCCDAllocator:
    """Packs sacrificed jobs into the free slots left by the exact jobs."""

    def __init__(self, prefer_ideal_placement: bool = False):
        self.prefer_ideal_placement = prefer_ideal_placement

    def allocate(
        self,
        kept: Sequence[IOJob],
        sacrificed: Sequence[IOJob],
        horizon: int,
    ) -> Tuple[Optional[Schedule], AllocationReport]:
        """Build a complete schedule, or return ``(None, report)`` if infeasible."""
        schedule = Schedule()
        for job in kept:
            schedule.set_start(job, job.ideal_start)

        report = AllocationReport()
        pending = sorted(sacrificed, key=lambda j: (-j.priority, j.ideal_start, j.key))
        releases = np.array([j.release for j in pending], dtype=np.int64)
        deadlines = np.array([j.deadline for j in pending], dtype=np.int64)
        wcets = np.array([j.wcet for j in pending], dtype=np.int64)
        for index, job in enumerate(pending):
            if self._allocate_direct(
                schedule,
                job,
                releases[index + 1:],
                deadlines[index + 1:],
                wcets[index + 1:],
                horizon,
            ):
                report.allocated_direct += 1
                continue
            if self._allocate_by_shifting(schedule, job, horizon):
                report.allocated_by_shift += 1
                continue
            report.failed_job = job.name
            return None, report
        return schedule, report

    def _allocate_direct(
        self,
        schedule: Schedule,
        job: IOJob,
        remaining_releases: np.ndarray,
        remaining_deadlines: np.ndarray,
        remaining_wcets: np.ndarray,
        horizon: int,
    ) -> bool:
        intervals = schedule.idle_intervals(horizon)
        if not intervals:
            return False
        starts = np.fromiter((lo for lo, _ in intervals), dtype=np.int64, count=len(intervals))
        ends = np.fromiter((hi for _, hi in intervals), dtype=np.int64, count=len(intervals))
        usable_lo = np.maximum(starts, job.release)
        usable_hi = np.minimum(ends, job.deadline)
        fits = (usable_hi > usable_lo) & (usable_hi - usable_lo >= job.wcet)
        if not fits.any():
            return False
        fit_starts = starts[fits]
        fit_ends = ends[fits]
        if remaining_releases.size:
            lo = np.maximum(fit_starts[:, None], remaining_releases[None, :])
            hi = np.minimum(fit_ends[:, None], remaining_deadlines[None, :])
            contention = ((hi > lo) & (hi - lo >= remaining_wcets)).sum(axis=1)
        else:
            contention = np.zeros(fit_starts.size, dtype=np.int64)
        capacities = fit_ends - fit_starts
        chosen = min(
            range(fit_starts.size),
            key=lambda i: (contention[i], capacities[i], fit_starts[i]),
        )
        slot = FreeSlot(int(fit_starts[chosen]), int(fit_ends[chosen]))
        start = slot.fit_start(job, prefer_ideal=self.prefer_ideal_placement)
        assert start is not None
        schedule.set_start(job, start)
        return True

    def _allocate_by_shifting(self, schedule: Schedule, job: IOJob, horizon: int) -> bool:
        slots = free_slots(schedule, horizon)
        window_slots = slots_within_window(slots, job.release, job.deadline)
        if total_capacity(window_slots) < job.wcet:
            return False

        runs = self._candidate_runs(schedule, slots, job)
        for _, _, run_slots, between in runs:
            if self._try_pack(schedule, job, run_slots, between, pack_left=True):
                return True
            if self._try_pack(schedule, job, run_slots, between, pack_left=False):
                return True
        return False

    def _candidate_runs(
        self,
        schedule: Schedule,
        slots: Sequence[FreeSlot],
        job: IOJob,
    ) -> List[Tuple[int, int, List[FreeSlot], List[ScheduleEntry]]]:
        """Consecutive slot groups whose merged capacity could hold the job, best first."""
        runs: List[Tuple[int, int, List[FreeSlot], List[ScheduleEntry]]] = []
        n = len(slots)
        if n == 0:
            return runs
        slot_starts = np.fromiter((s.start for s in slots), dtype=np.int64, count=n)
        slot_ends = np.fromiter((s.end for s in slots), dtype=np.int64, count=n)
        clipped = np.minimum(slot_ends, job.deadline) - np.maximum(slot_starts, job.release)
        cum = np.cumsum(np.maximum(clipped, 0))
        targets = job.wcet + np.concatenate((np.zeros(1, dtype=np.int64), cum[:-1]))
        run_ends = np.maximum(np.searchsorted(cum, targets, side="left"), np.arange(n))

        entries = schedule.sorted_entries()
        entry_starts = np.fromiter((e.start for e in entries), dtype=np.int64, count=len(entries))
        entry_finishes = np.fromiter(
            (e.finish for e in entries), dtype=np.int64, count=len(entries)
        )
        entry_exact = np.fromiter(
            (e.start == e.job.ideal_start for e in entries), dtype=bool, count=len(entries)
        )
        for i in np.nonzero(run_ends < n)[0]:
            j = int(run_ends[i])
            run_slots = list(slots[i:j + 1])
            lo, hi = run_slots[0].start, run_slots[-1].end
            inside = np.nonzero((entry_starts >= lo) & (entry_finishes <= hi))[0]
            between = [entries[k] for k in inside]
            exact_between = int(np.count_nonzero(entry_exact[inside]))
            runs.append((exact_between, len(between), run_slots, between))
        runs.sort(key=lambda r: (r[0], r[1], r[2][0].start))
        return runs

    def _try_pack(
        self,
        schedule: Schedule,
        job: IOJob,
        run_slots: Sequence[FreeSlot],
        between: Sequence[ScheduleEntry],
        *,
        pack_left: bool,
    ) -> bool:
        """Shift the in-between jobs towards one end of the run and insert ``job``."""
        region_start = run_slots[0].start
        region_end = run_slots[-1].end
        ordered = sorted(between, key=lambda e: e.start)

        new_starts: List[Tuple[IOJob, int]] = []
        if pack_left:
            cursor = region_start
            for entry in ordered:
                start = max(entry.job.release, cursor)
                if start + entry.job.wcet > entry.job.deadline:
                    return False
                new_starts.append((entry.job, start))
                cursor = start + entry.job.wcet
            gap_start, gap_end = cursor, region_end
        else:
            cursor = region_end
            for entry in reversed(ordered):
                finish = min(entry.job.deadline, cursor)
                start = finish - entry.job.wcet
                if start < entry.job.release:
                    return False
                new_starts.append((entry.job, start))
                cursor = start
            gap_start, gap_end = region_start, cursor

        usable = FreeSlot(gap_start, gap_end).overlap(job.release, job.deadline)
        if usable is None or usable.capacity < job.wcet:
            return False

        for shifted_job, start in new_starts:
            schedule.set_start(shifted_job, start)
        placement = usable.fit_start(job, prefer_ideal=self.prefer_ideal_placement)
        assert placement is not None
        schedule.set_start(job, placement)
        return True


# -- Algorithm 1 ------------------------------------------------------------------


def schedule_jobs(
    jobs: Sequence[IOJob], horizon: int, *, prefer_ideal_placement: bool = False
) -> Tuple[List[IOJob], List[IOJob], int, Optional[Schedule], AllocationReport]:
    """The whole reference pipeline: ``(kept, sacrificed, n_components, schedule, report)``."""
    kept, sacrificed = decompose(jobs)
    n_components = count_components(conflict_adjacency(jobs))
    schedule, report = LCCDAllocator(prefer_ideal_placement).allocate(kept, sacrificed, horizon)
    return kept, sacrificed, n_components, schedule, report
