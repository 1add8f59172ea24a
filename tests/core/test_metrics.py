"""Unit tests for the Psi / Upsilon metrics."""

import pytest

from repro.core import (
    MS,
    IOTask,
    Schedule,
    flat_psi,
    flat_upsilon,
    psi,
    schedule_metrics,
    upsilon,
)
from repro.core.schedule import FlatSchedule, task_table


def flat(*schedules: Schedule):
    tasks = task_table(schedules)
    return [FlatSchedule.from_schedule(schedule, tasks) for schedule in schedules]


def make_task(name="t", v_max=5.0, device="dev0", delta=5 * MS):
    return IOTask(
        name=name,
        wcet=2 * MS,
        period=20 * MS,
        ideal_offset=delta,
        theta=4 * MS,
        device=device,
        v_max=v_max,
        v_min=1.0,
    )


def two_job_schedule(second_exact: bool) -> Schedule:
    # Task a's ideal execution is [5, 7) ms, task b's ideal start is 9 ms, so
    # both can be exact simultaneously; the inexact variant delays b by 2 ms.
    a, b = make_task("a"), make_task("b", delta=9 * MS)
    schedule = Schedule()
    schedule.set_start(a.job(0), a.job(0).ideal_start)
    offset = 0 if second_exact else 2 * MS
    schedule.set_start(b.job(0), b.job(0).ideal_start + offset)
    return schedule


class TestPsi:
    def test_all_exact(self):
        a = make_task("a")
        schedule = Schedule()
        schedule.set_start(a.job(0), a.job(0).ideal_start)
        assert psi(schedule) == pytest.approx(1.0)

    def test_half_exact(self):
        schedule = two_job_schedule(second_exact=False)
        assert psi(schedule) == pytest.approx(0.5)
        assert schedule_metrics(schedule).n_exact == 1

    def test_empty_schedule_is_vacuously_perfect(self):
        assert psi(Schedule()) == pytest.approx(1.0)


class TestUpsilon:
    def test_all_at_ideal_gives_one(self):
        a = make_task("a")
        schedule = Schedule()
        schedule.set_start(a.job(0), a.job(0).ideal_start)
        assert upsilon(schedule) == pytest.approx(1.0)

    def test_degrades_with_lateness(self):
        exact = two_job_schedule(second_exact=True)
        late = two_job_schedule(second_exact=False)
        assert upsilon(late) < upsilon(exact) <= 1.0

    def test_outside_window_contributes_vmin(self):
        a = make_task("a", v_max=10.0)
        job = a.job(0)
        schedule = Schedule()
        schedule.set_start(job, job.ideal_start + 10 * MS)  # far outside theta
        assert upsilon(schedule) == pytest.approx(1.0 / 10.0)


class TestScheduleMetrics:
    def test_valid_schedule_metrics(self):
        schedule = two_job_schedule(second_exact=False)
        metrics = schedule_metrics(schedule, [e.job for e in schedule.entries])
        assert metrics.schedulable
        assert metrics.n_jobs == 2
        assert metrics.n_exact == 1
        assert metrics.psi == pytest.approx(0.5)
        assert metrics.mean_abs_lateness_us > 0

    def test_strict_mode_zeroes_invalid_schedule(self):
        a = make_task("a")
        job = a.job(0)
        schedule = Schedule()
        schedule.set_start(job, job.deadline)  # misses its deadline
        metrics = schedule_metrics(schedule, [job], strict=True)
        assert not metrics.schedulable
        assert metrics.psi == 0.0

    def test_non_strict_mode_keeps_quality_of_invalid_schedule(self):
        a = make_task("a")
        job = a.job(0)
        schedule = Schedule()
        schedule.set_start(job, job.deadline)
        metrics = schedule_metrics(schedule, [job], strict=False)
        assert not metrics.schedulable
        assert metrics.upsilon > 0.0

    def test_mean_absolute_lateness_empty(self):
        assert schedule_metrics(Schedule()).mean_abs_lateness_us == 0.0


class TestAggregation:
    def test_aggregate_psi_job_weighted(self):
        exact = two_job_schedule(second_exact=True)
        half = two_job_schedule(second_exact=False)
        assert flat_psi(flat(exact, half)) == pytest.approx(0.75)

    def test_aggregate_upsilon_between_parts(self):
        exact = two_job_schedule(second_exact=True)
        half = two_job_schedule(second_exact=False)
        combined = flat_upsilon(flat(exact, half))
        assert upsilon(half) <= combined <= upsilon(exact)

    def test_aggregate_of_nothing_is_one(self):
        assert flat_psi([]) == pytest.approx(1.0)
        assert flat_upsilon([]) == pytest.approx(1.0)
