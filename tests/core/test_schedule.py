"""Unit tests for schedules and schedule validation."""

import pytest

from repro.core import (
    MS,
    IOTask,
    Schedule,
    ScheduleEntry,
    ScheduleValidationError,
    SystemSchedule,
    validate_schedule,
)


def make_task(name="t", wcet=2 * MS, period=20 * MS, delta=5 * MS, device="dev0"):
    return IOTask(
        name=name, wcet=wcet, period=period, ideal_offset=delta, theta=4 * MS, device=device
    )


class TestScheduleEntry:
    def test_finish_and_exactness(self):
        job = make_task().job(0)
        entry = ScheduleEntry(job=job, start=job.ideal_start)
        assert entry.finish == job.ideal_start + job.wcet
        assert entry.is_exact
        assert entry.lateness == 0

    def test_lateness_sign(self):
        job = make_task().job(0)
        late = ScheduleEntry(job=job, start=job.ideal_start + 3)
        early = ScheduleEntry(job=job, start=job.ideal_start - 3)
        assert late.lateness == 3
        assert early.lateness == -3

    def test_quality_uses_task_curve(self):
        job = make_task().job(0)
        exact = ScheduleEntry(job=job, start=job.ideal_start)
        off = ScheduleEntry(job=job, start=job.ideal_start + 10 * MS)
        assert exact.quality > off.quality


class TestSchedule:
    def test_add_and_lookup(self):
        job = make_task().job(0)
        schedule = Schedule()
        schedule.set_start(job, 1000)
        assert job in schedule
        assert schedule.start_of(job) == 1000
        assert len(schedule) == 1

    def test_replacing_entry_keeps_single_entry_per_job(self):
        job = make_task().job(0)
        schedule = Schedule()
        schedule.set_start(job, 1000)
        schedule.set_start(job, 2000)
        assert len(schedule) == 1
        assert schedule.start_of(job) == 2000

    def test_missing_job_lookup_raises(self):
        schedule = Schedule()
        with pytest.raises(KeyError):
            schedule.start_of(make_task().job(0))

    def test_rejects_mixed_devices(self):
        schedule = Schedule()
        schedule.set_start(make_task(name="a", device="d0").job(0), 0)
        with pytest.raises(ScheduleValidationError):
            schedule.set_start(make_task(name="b", device="d1").job(0), 5000)

    def test_sorted_entries_and_makespan(self):
        t1, t2 = make_task(name="a"), make_task(name="b", delta=9 * MS)
        schedule = Schedule()
        schedule.set_start(t2.job(0), 9 * MS)
        schedule.set_start(t1.job(0), 5 * MS)
        ordered = schedule.sorted_entries()
        assert [e.job.task.name for e in ordered] == ["a", "b"]
        assert schedule.makespan == 9 * MS + 2 * MS

    def test_busy_intervals(self):
        t1, t2 = make_task(name="a"), make_task(name="b", delta=9 * MS)
        schedule = Schedule()
        schedule.set_start(t2.job(0), 9 * MS)
        schedule.set_start(t1.job(0), 5 * MS)
        assert schedule.busy_intervals() == [(5 * MS, 7 * MS), (9 * MS, 11 * MS)]
        assert Schedule().busy_intervals() == []

    def test_copy(self):
        job = make_task().job(0)
        schedule = Schedule()
        schedule.set_start(job, 4000)
        duplicate = schedule.copy()
        duplicate.set_start(job, 5000)
        assert schedule.start_of(job) == 4000
        assert duplicate.start_of(job) == 5000

    @pytest.mark.parametrize("sorted_first", [False, True])
    def test_copy_keeps_entries_order_and_device(self, sorted_first):
        """A copy lists the same entries in the same order on the same device,
        with or without the original's start-time order already built, and
        adding to it leaves the original as it was."""
        a, b = make_task(name="a"), make_task(name="b", delta=9 * MS)
        schedule = Schedule(device="dev0")
        for job, start in ((b.job(1), 30 * MS), (a.job(0), 5 * MS), (b.job(0), 9 * MS)):
            schedule.set_start(job, start)
        if sorted_first:
            schedule.sorted_entries()
        duplicate = schedule.copy()
        assert duplicate.device == "dev0"
        assert duplicate.entries == schedule.entries
        assert duplicate.sorted_entries() == schedule.sorted_entries()
        duplicate.set_start(a.job(1), 25 * MS)
        assert a.job(1) in duplicate and a.job(1) not in schedule
        assert [e.job.key for e in schedule.entries] == [("b", 1), ("a", 0), ("b", 0)]
        assert [e.job.key for e in schedule.sorted_entries()] == [("a", 0), ("b", 0), ("b", 1)]
        assert [e.job.key for e in duplicate.sorted_entries()] == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1)
        ]


class TestValidation:
    def test_valid_schedule_passes(self):
        t1, t2 = make_task(name="a"), make_task(name="b", delta=9 * MS)
        jobs = [t1.job(0), t2.job(0)]
        schedule = Schedule()
        schedule.set_start(jobs[0], jobs[0].ideal_start)
        schedule.set_start(jobs[1], jobs[1].ideal_start)
        assert validate_schedule(schedule, jobs) == []

    def test_detects_missing_job(self):
        t1, t2 = make_task(name="a"), make_task(name="b")
        schedule = Schedule()
        schedule.set_start(t1.job(0), t1.job(0).ideal_start)
        violations = validate_schedule(schedule, [t1.job(0), t2.job(0)], raise_on_error=False)
        assert any("missing" in v for v in violations)

    def test_detects_start_before_release(self):
        job = make_task().job(1)
        schedule = Schedule()
        schedule.set_start(job, job.release - 1)
        violations = validate_schedule(schedule, [job], raise_on_error=False)
        assert any("before its release" in v for v in violations)

    def test_detects_deadline_miss(self):
        job = make_task().job(0)
        schedule = Schedule()
        schedule.set_start(job, job.deadline - 1)
        violations = validate_schedule(schedule, [job], raise_on_error=False)
        assert any("deadline" in v for v in violations)

    def test_detects_overlap(self):
        t1, t2 = make_task(name="a"), make_task(name="b")
        schedule = Schedule()
        schedule.set_start(t1.job(0), 5 * MS)
        schedule.set_start(t2.job(0), 5 * MS + 1)
        violations = validate_schedule(schedule, raise_on_error=False)
        assert any("overlap" in v for v in violations)

    def test_raises_by_default(self):
        job = make_task().job(0)
        schedule = Schedule()
        schedule.set_start(job, job.deadline)
        with pytest.raises(ScheduleValidationError):
            validate_schedule(schedule, [job])


class TestSystemSchedule:
    def test_devices_and_entries(self):
        sched_a = Schedule()
        sched_a.set_start(make_task(name="a", device="d0").job(0), 1000)
        sched_b = Schedule()
        sched_b.set_start(make_task(name="b", device="d1").job(0), 2000)
        system = SystemSchedule({"d0": sched_a})
        system["d1"] = sched_b
        assert system.devices == ["d0", "d1"]
        assert len(system.all_entries()) == 2
        assert len(system) == 2
