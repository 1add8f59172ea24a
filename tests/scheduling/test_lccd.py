"""Unit tests for the LCC-D allocation (Algorithm 1, phase 3)."""

import pytest

from repro.core import MS, IOTask, validate_schedule
from repro.scheduling.lccd import LCCDAllocator


def allocate(kept, sacrificed, horizon, **options):
    """``LCCDAllocator.allocate`` with its start vectors as a ``Schedule``."""
    flat, report = LCCDAllocator(**options).allocate(kept, sacrificed, horizon)
    return (None if flat is None else flat.to_schedule()), report


def make_task(name, delta, wcet=2 * MS, period=40 * MS, priority=1, theta=None):
    return IOTask(
        name=name,
        wcet=wcet,
        period=period,
        priority=priority,
        ideal_offset=delta,
        theta=period // 4 if theta is None else theta,
    )


class TestDirectAllocation:
    def test_sacrificed_job_placed_in_free_slot(self):
        kept = [make_task("k", 10 * MS).job(0)]
        sacrificed = [make_task("s", 11 * MS).job(0)]
        schedule, report = allocate(kept, sacrificed, horizon=40 * MS)
        assert schedule is not None
        assert report.allocated_direct == 1
        assert validate_schedule(schedule, kept + sacrificed, raise_on_error=False) == []

    def test_kept_jobs_remain_at_ideal_start(self):
        kept = [make_task("k1", 10 * MS).job(0), make_task("k2", 20 * MS).job(0)]
        sacrificed = [make_task("s", 11 * MS).job(0)]
        schedule, _ = allocate(kept, sacrificed, horizon=40 * MS)
        for job in kept:
            assert schedule.start_of(job) == job.ideal_start

    def test_prefer_ideal_placement_improves_quality(self):
        # The kept job occupies [1, 3) ms, so the only slot that can hold the
        # sacrificed job is [3, 40) ms; with prefer_ideal the job lands exactly
        # on its ideal start inside that slot.
        kept = [make_task("k", 1 * MS).job(0)]
        sacrificed = [make_task("s", 20 * MS).job(0)]
        default_schedule, _ = allocate(kept, sacrificed, 40 * MS)
        ideal_schedule, _ = allocate(kept, sacrificed, 40 * MS, prefer_ideal_placement=True)
        sacrificed_job = sacrificed[0]
        assert ideal_schedule.start_of(sacrificed_job) == sacrificed_job.ideal_start
        assert default_schedule.start_of(sacrificed_job) <= ideal_schedule.start_of(sacrificed_job)

    def test_empty_inputs(self):
        schedule, report = allocate([], [], horizon=10 * MS)
        assert schedule is not None
        assert len(schedule) == 0
        assert report.feasible


class TestShiftAllocation:
    def test_allocation_by_shifting_kept_jobs(self):
        # Two kept jobs fragment the sacrificed job's window into slots that are
        # individually too small, but shifting one kept job merges enough room.
        kept = [
            make_task("k1", 4 * MS, wcet=4 * MS, period=20 * MS).job(0),
            make_task("k2", 11 * MS, wcet=4 * MS, period=20 * MS).job(0),
        ]
        sacrificed = [
            make_task("s", 8 * MS, wcet=6 * MS, period=20 * MS, theta=5 * MS).job(0)
        ]
        schedule, report = allocate(kept, sacrificed, horizon=20 * MS)
        assert schedule is not None
        assert report.allocated_by_shift == 1
        assert validate_schedule(schedule, kept + sacrificed, raise_on_error=False) == []

    def test_infeasible_when_capacity_insufficient(self):
        # Total demand exceeds the window: allocation must fail, not crash.
        kept = [make_task("k", 2 * MS, wcet=8 * MS, period=16 * MS).job(0)]
        sacrificed = [
            make_task("s1", 4 * MS, wcet=6 * MS, period=16 * MS).job(0),
            make_task("s2", 6 * MS, wcet=6 * MS, period=16 * MS).job(0),
        ]
        schedule, report = allocate(kept, sacrificed, horizon=16 * MS)
        assert schedule is None
        assert not report.feasible
        assert report.failed_job is not None


class TestPriorityOrdering:
    def test_highest_priority_sacrificed_job_allocated_first(self):
        kept = [make_task("k", 10 * MS).job(0)]
        high = make_task("high", 11 * MS, priority=5).job(0)
        low = make_task("low", 12 * MS, priority=1).job(0)
        schedule, _ = allocate(kept, [low, high], horizon=40 * MS)
        assert schedule is not None
        # Both fit, but the higher-priority job is handled first and therefore
        # claims the earlier (smaller-contention) placement.
        assert schedule.start_of(high) <= schedule.start_of(low)
