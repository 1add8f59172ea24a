"""GPIOCP baseline: FIFO-ordered execution of timed I/O requests.

GPIOCP (Jiang & Audsley, DATE 2017 — the paper's reference [2]) pre-loads
timed I/O commands into a co-processor and specifies the exact start time of
each command, but orders execution solely with FIFO queues: a request fired at
its desired time instant is queued, and executes when it reaches the head of
the queue and the device is free.  Under light load this is close to exact
timing accuracy; under intensive I/O the queueing delay destroys both accuracy
and schedulability, which is what Figures 5-7 of the paper show.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.schedule import FlatSchedule
from repro.core.task import IOJob
from repro.scheduling.base import Scheduler, ScheduleResult
from repro.scheduling.registry import register_scheduler


@register_scheduler("gpiocp")
class GPIOCPScheduler(Scheduler):
    """FIFO execution model of the GPIOCP co-processor."""

    name = "gpiocp"

    def schedule_jobs(self, jobs: Sequence[IOJob], horizon: int) -> ScheduleResult:
        table = FlatSchedule.of_jobs(jobs)
        if not len(table):
            return ScheduleResult.from_flat(table, table)

        # Requests are fired at their ideal start times and enter a FIFO queue;
        # ties are broken by priority then job identity for determinism (the
        # table lists tasks in name order, so a task's position orders keys).
        columns = table.tasks.columns()
        arrival = np.lexsort(
            (table.job, table.task, -columns.priority[table.task], table.start)
        )
        queued = table.take(arrival)
        # Each request starts at max(its ideal start, the previous finish):
        # with W the WCET before it, start_k = W_k + max_{j<=k}(ideal_j - W_j).
        wcet = columns.wcet[queued.task]
        before = np.cumsum(wcet) - wcet
        start = np.maximum.accumulate(queued.start - before) + before
        queue_delayed = int(np.count_nonzero(start > queued.start))
        return ScheduleResult.from_flat(
            queued.take(slice(None), start).as_added(), table, queue_delayed=queue_delayed
        )
