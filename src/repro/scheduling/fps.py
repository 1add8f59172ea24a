"""Offline non-preemptive fixed-priority scheduling ("FPS-offline" baseline).

The baseline builds an explicit schedule over one hyper-period by simulating a
work-conserving non-preemptive fixed-priority dispatcher: whenever the I/O
device becomes idle, the released-and-pending job with the highest priority is
started immediately.  The resulting start times ignore the ideal start times
entirely, which is why FPS achieves excellent schedulability (Figure 5) but a
``Psi`` of zero and a poor ``Upsilon`` (Figures 6 and 7).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.schedule import FlatSchedule
from repro.core.task import IOJob
from repro.scheduling.base import Scheduler, ScheduleResult
from repro.scheduling.registry import register_scheduler


@register_scheduler("fps-offline", aliases=("fps",))
class FPSOfflineScheduler(Scheduler):
    """Work-conserving offline non-preemptive fixed-priority job scheduling."""

    name = "fps-offline"

    def schedule_jobs(self, jobs: Sequence[IOJob], horizon: int) -> ScheduleResult:
        table = FlatSchedule.of_jobs(jobs)
        if not len(table):
            return ScheduleResult.from_flat(table, table)

        # Jobs indexed by release time; a priority queue holds released jobs
        # ordered by (priority desc, release, key) — the classic FPS
        # dispatcher.  The table lists tasks in name order, so a task's
        # position orders its jobs' keys by name.
        columns = table.tasks.columns()
        release = table.releases().tolist()
        wcet = columns.wcet[table.task].tolist()
        priority = columns.priority[table.task]
        rank = list(zip((-priority).tolist(), release, table.task.tolist(), table.job.tolist()))
        by_release: List[int] = np.lexsort((table.job, table.task, release)).tolist()
        ready: List[Tuple[Tuple[int, int, int, int], int]] = []
        dispatched: List[int] = []
        starts: List[int] = []
        next_index = 0
        time = 0
        n_total = len(by_release)

        while len(dispatched) < n_total:
            # Admit everything released by the current time.
            while next_index < n_total and release[by_release[next_index]] <= time:
                row = by_release[next_index]
                heapq.heappush(ready, (rank[row], row))
                next_index += 1

            if not ready:
                # Idle until the next release.
                time = release[by_release[next_index]]
                continue

            _, row = heapq.heappop(ready)
            start = max(time, release[row])
            dispatched.append(row)
            starts.append(start)
            time = start + wcet[row]

        schedule = table.take(dispatched, np.array(starts, dtype=np.int64)).as_added()
        return ScheduleResult.from_flat(schedule, table, makespan=time)
