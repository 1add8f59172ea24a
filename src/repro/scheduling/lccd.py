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

The allocator works on arrays.  The placed jobs are start-sorted ``starts`` /
``finishes`` / ``placed`` (job position) vectors; they never overlap, so the
finishes are sorted too.  The free slots are the gaps above the running
maximum of the finishes, and the jobs inside a run of slots are a contiguous
range of the vectors.  The schedule is returned as start vectors
(:class:`~repro.core.schedule.FlatSchedule`); no job object is read after
the jobs are laid out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import FlatSchedule
from repro.core.task import IOJob


@dataclass
class AllocationReport:
    """Diagnostics of an LCC-D allocation run."""

    allocated_direct: int = 0
    allocated_by_shift: int = 0
    failed_job: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.failed_job is None


class _Windows(NamedTuple):
    """Per-job timing vectors, indexed by position in ``kept + pending``."""

    release: np.ndarray
    deadline: np.ndarray
    wcet: np.ndarray
    ideal: np.ndarray


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
    ) -> Tuple[Optional[FlatSchedule], AllocationReport]:
        """Build a complete schedule, or return ``(None, report)`` if infeasible.

        ``kept`` must not overlap at their ideal starts (``decompose_graphs``
        guarantees it).  The schedule lists the kept jobs, then the
        sacrificed ones in allocation order, over a table of their tasks
        (:meth:`FlatSchedule.of_jobs`), as a
        :class:`~repro.core.schedule.Schedule` holds them
        (:meth:`FlatSchedule.as_added`).
        """
        report = AllocationReport()
        # Highest priority first (the paper's "largest P_i first").
        pending = sorted(sacrificed, key=lambda j: (-j.priority, j.ideal_start, j.key))
        jobs = FlatSchedule.of_jobs(list(kept) + pending)
        columns = jobs.tasks.columns()
        release = jobs.releases()
        w = _Windows(
            release=release,
            deadline=release + columns.deadline[jobs.task],
            wcet=columns.wcet[jobs.task],
            ideal=jobs.start,
        )

        # Buffers for every job; the first ``position`` entries hold the jobs
        # placed so far (the kept ones, then pending ones in order).
        starts, finishes, placed = (np.empty(len(jobs), dtype=np.int64) for _ in range(3))
        placed[:len(kept)] = np.argsort(w.ideal[:len(kept)], kind="stable")
        starts[:len(kept)] = w.ideal[placed[:len(kept)]]
        finishes[:len(kept)] = starts[:len(kept)] + w.wcet[placed[:len(kept)]]
        for position in range(len(kept), len(jobs)):
            slot_lo, slot_hi = _free_slots(starts[:position], finishes[:position], horizon)
            start = self._direct_fit(w, position, slot_lo, slot_hi)
            if start is not None:
                report.allocated_direct += 1
            else:
                start = self._shift_fit(
                    w, position, slot_lo, slot_hi,
                    starts[:position], finishes[:position], placed[:position],
                )
                if start is None:
                    report.failed_job = jobs.name(position)
                    return None, report
                report.allocated_by_shift += 1
            at = int(np.searchsorted(starts[:position], start))
            for vector, value in (
                (starts, start),
                (finishes, start + w.wcet[position]),
                (placed, position),
            ):
                vector[at + 1:position + 1] = vector[at:position]
                vector[at] = value

        final = np.empty(len(jobs), dtype=np.int64)
        final[placed] = starts
        return jobs.take(slice(None), final).as_added(), report

    def _placement(self, w: _Windows, position: int, lo: int, hi: int) -> int:
        """Start of job ``position`` in the window-clipped gap ``[lo, hi)``."""
        if not self.prefer_ideal_placement:
            return lo
        return min(max(int(w.ideal[position]), lo), hi - int(w.wcet[position]))

    # -- case 1: direct fit ---------------------------------------------------

    def _direct_fit(
        self, w: _Windows, position: int, slot_lo: np.ndarray, slot_hi: np.ndarray
    ) -> Optional[int]:
        usable_lo = np.maximum(slot_lo, w.release[position])
        usable_hi = np.minimum(slot_hi, w.deadline[position])
        fits = np.nonzero(usable_hi - usable_lo >= w.wcet[position])[0]
        if fits.size == 0:
            return None
        chosen = fits[0]
        if fits.size > 1:
            # Least contention first: how many still-pending jobs could also
            # use each candidate slot (one broadcast instead of a slot x job
            # loop), then least capacity, then the earliest slot.
            later = slice(position + 1, None)
            lo = np.maximum(slot_lo[fits, None], w.release[later])
            hi = np.minimum(slot_hi[fits, None], w.deadline[later])
            contention = (hi - lo >= w.wcet[later]).sum(axis=1)
            capacity = slot_hi[fits] - slot_lo[fits]
            chosen = fits[np.lexsort((slot_lo[fits], capacity, contention))[0]]
        return self._placement(w, position, int(usable_lo[chosen]), int(usable_hi[chosen]))

    # -- case 2: fit by shifting ----------------------------------------------

    def _shift_fit(
        self,
        w: _Windows,
        position: int,
        slot_lo: np.ndarray,
        slot_hi: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
        placed: np.ndarray,
    ) -> Optional[int]:
        """Place job ``position`` by shifting the jobs of one slot run.

        Shifted jobs are written into ``starts``/``finishes`` in place; they
        stay inside their run, so the vectors stay sorted.
        """
        release, deadline, wcet = w.release[position], w.deadline[position], w.wcet[position]
        capacity = np.maximum(np.minimum(slot_hi, deadline) - np.maximum(slot_lo, release), 0)
        if capacity.sum() < wcet:
            return None
        # Each run starts at slot i and extends to the first slot j whose
        # cumulative window-clipped capacity reaches the job's WCET (extending
        # further only adds more disturbance): a prefix sum + binary search.
        cum = np.cumsum(capacity)
        n = cum.size
        run_ends = np.maximum(np.searchsorted(cum, wcet + cum - capacity), np.arange(n))
        firsts = np.nonzero(run_ends < n)[0]
        region_lo, region_hi = slot_lo[firsts], slot_hi[run_ends[firsts]]
        # The placed jobs inside [lo, hi] are the range [first, stop) of the
        # start-sorted vectors; rank the runs by their exactly-accurate jobs,
        # then by all their jobs, then by start.
        first = np.searchsorted(starts, region_lo)
        stop = np.searchsorted(finishes, region_hi, side="right")
        exact = np.concatenate(([0], np.cumsum(starts == w.ideal[placed])))
        for k in np.lexsort((region_lo, stop - first, exact[stop] - exact[first])):
            between = placed[first[k]:stop[k]].tolist()
            for pack_left in (True, False):
                packed = _pack(w, between, int(region_lo[k]), int(region_hi[k]), pack_left)
                if packed is None:
                    continue
                shifted, gap_lo, gap_hi = packed
                lo, hi = max(gap_lo, int(release)), min(gap_hi, int(deadline))
                if hi - lo < wcet:
                    continue
                starts[first[k]:stop[k]] = shifted
                finishes[first[k]:stop[k]] = shifted + w.wcet[between]
                return self._placement(w, position, lo, hi)
        return None


def _free_slots(
    starts: np.ndarray, finishes: np.ndarray, horizon: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal idle intervals ``[lo, hi)`` over ``[0, horizon)``, in time order.

    A gap opens before each placed job that starts past the running maximum
    of the earlier finishes, and before the horizon.
    """
    lo = np.maximum.accumulate(np.concatenate(([0], finishes)))
    hi = np.concatenate((starts, [horizon]))
    opens = hi > lo
    return lo[opens], hi[opens]


def _pack(
    w: _Windows, between: List[int], region_lo: int, region_hi: int, pack_left: bool
) -> Optional[Tuple[np.ndarray, int, int]]:
    """Shift the in-between jobs towards one end of the run.

    Packing left pushes the in-between jobs as early as their releases
    allow, opening a gap at the end of the run; packing right pushes them
    as late as their deadlines allow, opening a gap at the start.  Returns
    ``(new starts, gap_lo, gap_hi)``, or ``None`` if a job would leave its
    release window.
    """
    release = w.release[between].tolist()
    deadline = w.deadline[between].tolist()
    wcet = w.wcet[between].tolist()
    shifted = [0] * len(between)
    if pack_left:
        cursor = region_lo
        for i in range(len(between)):
            start = max(release[i], cursor)
            if start + wcet[i] > deadline[i]:
                return None
            shifted[i] = start
            cursor = start + wcet[i]
        return np.array(shifted, dtype=np.int64), cursor, region_hi
    cursor = region_hi
    for i in reversed(range(len(between))):
        start = min(deadline[i], cursor) - wcet[i]
        if start < release[i]:
            return None
        shifted[i] = start
        cursor = start
    return np.array(shifted, dtype=np.int64), region_lo, cursor
