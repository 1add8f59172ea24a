"""Least Contention and Capacity Decreasing (LCC-D) allocation (phase 3 of Algorithm 1).

After graph decomposition, the surviving jobs (``lambda*``) are placed at their
ideal start times and the sacrificed jobs (``lambda¬``) must be packed into the
remaining free slots so that every job still meets its deadline.  The paper's
LCC-D rule handles each sacrificed job, highest priority first, in two cases:

1. *Direct fit* — one or more free slots inside the job's release window can
   hold the whole job.  The job goes to the slot usable by the **fewest** other
   pending jobs (least contention); ties are broken towards the slot with the
   **least capacity** (capacity decreasing, in the spirit of Best-Fit).
2. *Fit by shifting* — no single slot fits, but the total free capacity inside
   the window suffices.  The allocator picks the consecutive group of slots
   whose in-between jobs contain the fewest exactly-accurate jobs, shifts those
   in-between jobs (left or right, within their own release windows) to merge
   the capacity, and places the job in the merged gap.

If neither case applies the allocation — and hence the heuristic schedule —
is declared infeasible (the paper explicitly stops here rather than searching
for re-allocations of already-placed jobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.task import IOJob
from repro.scheduling.slots import FreeSlot, free_slots, slots_within_window, total_capacity


@dataclass
class AllocationReport:
    """Diagnostics of an LCC-D allocation run."""

    allocated_direct: int = 0
    allocated_by_shift: int = 0
    failed_job: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.failed_job is None


class LCCDAllocator:
    """Packs sacrificed jobs into the free slots left by the exact jobs."""

    def __init__(self, prefer_ideal_placement: bool = False):
        #: If true, a directly-fitting job is placed as close to its ideal
        #: start as the slot allows (improves Upsilon); the paper's static
        #: method is purely schedulability-driven, so the default is False.
        self.prefer_ideal_placement = prefer_ideal_placement

    # -- public API ---------------------------------------------------------

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
        # Highest priority first (the paper's "largest P_i first").
        pending = sorted(sacrificed, key=lambda j: (-j.priority, j.ideal_start, j.key))
        # Per-job window arrays: the direct-fit contention check compares every
        # candidate slot against every still-pending job in one broadcast.
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

    # -- case 1: direct fit ---------------------------------------------------

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
        # Least contention first: how many still-pending jobs could also use
        # each candidate slot (one broadcast instead of a slot x job loop).
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
        assert start is not None  # guaranteed by the fit mask
        schedule.set_start(job, start)
        return True

    # -- case 2: fit by shifting ----------------------------------------------

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
        """Consecutive slot groups whose merged capacity could hold the job.

        Each run is annotated with (#exactly-accurate in-between jobs,
        #in-between jobs) and the runs are returned best-first.
        """
        runs: List[Tuple[int, int, List[FreeSlot], List[ScheduleEntry]]] = []
        n = len(slots)
        if n == 0:
            return runs
        # Each run starts at slot i and extends to the first slot j whose
        # cumulative window-clipped capacity reaches the job's WCET (extending
        # further only adds more disturbance).  Finding every (i, j) pair is a
        # prefix-sum + binary search instead of the O(n^2) slot scan.
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
        """Shift the in-between jobs towards one end of the run and insert ``job``.

        Packing left pushes the in-between jobs as early as their releases
        allow, opening a gap at the end of the run; packing right pushes them
        as late as their deadlines allow, opening a gap at the start.  The
        shifts are applied only if the resulting gap can hold the new job
        inside its own release window.
        """
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
