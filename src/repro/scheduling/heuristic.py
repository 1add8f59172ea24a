"""The paper's heuristic ("static") I/O scheduler — Algorithm 1.

The scheduler maximises ``Psi``, the fraction of jobs executed exactly at
their ideal start times, in three phases:

1. build the dependency (conflict) graphs of the ideal job executions,
2. decompose the graphs by sacrificing the jobs with the highest penalty
   weight until no conflicts remain,
3. re-allocate the sacrificed jobs into free slots with the LCC-D rule so
   that every job still meets its deadline.

If the LCC-D phase cannot place a sacrificed job the whole partition is
reported unschedulable (the paper deliberately does not search further).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.memo import HashedKey, get_memo
from repro.core.schedule import FlatSchedule
from repro.core.task import IOJob
from repro.scheduling.base import Scheduler, ScheduleResult
from repro.scheduling.dependency_graph import build_dependency_graphs, decompose_graphs
from repro.scheduling.lccd import LCCDAllocator
from repro.scheduling.registry import register_scheduler


@register_scheduler("static", aliases=("heuristic",))
class HeuristicScheduler(Scheduler):
    """Job-level static I/O scheduling for maximising Psi (Algorithm 1)."""

    name = "static"

    def __init__(self, prefer_ideal_placement: bool = False):
        #: Passed through to :class:`LCCDAllocator`; the paper's method places
        #: sacrificed jobs purely for schedulability, which is the default.
        self.allocator = LCCDAllocator(prefer_ideal_placement=prefer_ideal_placement)

    def schedule_jobs(self, jobs: Sequence[IOJob], horizon: int) -> ScheduleResult:
        jobs = list(jobs)
        if not jobs:
            empty = FlatSchedule.of_jobs(jobs)
            return ScheduleResult.from_flat(empty, empty)

        # The whole pipeline is a pure function of (jobs, horizon, placement
        # policy), and the same partition is scheduled repeatedly within a
        # process (cache misses on a warm worker, GA heuristic seeding), so
        # the result is memoised per worker.  Jobs are frozen values, so the
        # key compares by content.  Callers share the stored start vectors,
        # which are read-only, and each gets its own result and diagnostics.
        memo = get_memo("heuristic")
        key = HashedKey((horizon, self.allocator.prefer_ideal_placement, *jobs))
        result = memo.get(key)
        if result is None:
            result = memo.put(key, self._schedule_jobs_uncached(jobs, horizon))
        return ScheduleResult(
            result.schedulable, result.flat, result.metrics, dict(result.diagnostics)
        )

    def _schedule_jobs_uncached(self, jobs: List[IOJob], horizon: int) -> ScheduleResult:
        graphs = build_dependency_graphs(jobs)
        kept, sacrificed = decompose_graphs(graphs)
        flat, report = self.allocator.allocate(kept, sacrificed, horizon)

        info = {
            "n_input_jobs": len(jobs),
            "n_kept": len(kept),
            "n_sacrificed": len(sacrificed),
            "n_dependency_graphs": len(graphs.component_starts),
            "allocated_direct": report.allocated_direct,
            "allocated_by_shift": report.allocated_by_shift,
            "failed_job": report.failed_job,
        }
        if flat is None:
            return ScheduleResult.infeasible(n_jobs=len(jobs), **info)
        # The allocation's rows are distinct jobs of ``jobs``.  As many rows
        # as listed jobs are every one of them, so the rows are the jobs the
        # schedule must hold; otherwise a job is listed twice or missing, and
        # the schedule is checked against the listed jobs themselves.
        if len(flat) == len(jobs):
            result = ScheduleResult.from_flat(flat, flat, **info)
        else:
            result = ScheduleResult.from_schedule(flat.to_schedule(), jobs, **info)
        for vector in (result.flat.task, result.flat.job, result.flat.start):
            vector.flags.writeable = False
        return result
