"""Unit tests for the timed I/O task/job model."""

import pytest

from repro.core import MS, IOTask, TaskSet, make_task_ms


def task(**overrides) -> IOTask:
    params = dict(
        name="tau0", wcet=2 * MS, period=20 * MS, ideal_offset=5 * MS, theta=5 * MS
    )
    params.update(overrides)
    return IOTask(**params)


class TestIOTaskValidation:
    def test_implicit_deadline_defaults_to_period(self):
        assert task().deadline == 20 * MS

    def test_explicit_deadline_respected(self):
        assert task(deadline=15 * MS).deadline == 15 * MS

    def test_rejects_non_positive_wcet(self):
        with pytest.raises(ValueError):
            task(wcet=0)

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            task(period=0)

    def test_rejects_deadline_beyond_period(self):
        with pytest.raises(ValueError):
            task(deadline=25 * MS)

    def test_rejects_wcet_beyond_deadline(self):
        with pytest.raises(ValueError):
            task(wcet=21 * MS)

    def test_rejects_ideal_offset_outside_deadline(self):
        with pytest.raises(ValueError):
            task(ideal_offset=21 * MS)

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            task(theta=-1)

    def test_rejects_vmax_below_vmin(self):
        with pytest.raises(ValueError):
            task(v_max=0.5, v_min=1.0)

    def test_utilisation(self):
        assert task().utilisation == pytest.approx(0.1)


class TestJobs:
    def test_job_release_and_deadline(self):
        job = task().job(3)
        assert job.release == 3 * 20 * MS
        assert job.deadline == 4 * 20 * MS

    def test_job_ideal_start_is_release_plus_delta(self):
        job = task().job(2)
        assert job.ideal_start == 2 * 20 * MS + 5 * MS

    def test_job_latest_start_meets_deadline(self):
        job = task().job(0)
        assert job.latest_start + job.wcet == job.deadline

    def test_job_window_clamped_to_release(self):
        # theta exceeds delta, so the lower edge of the window is the release.
        job = task(ideal_offset=2 * MS, theta=5 * MS).job(0)
        lo, hi = job.window
        assert lo == job.release
        assert hi == job.ideal_start + 5 * MS

    def test_jobs_in_horizon(self):
        jobs = task().jobs(60 * MS)
        assert [j.index for j in jobs] == [0, 1, 2]

    def test_job_with_offset(self):
        jobs = task(offset=7 * MS).jobs(60 * MS)
        assert jobs[0].release == 7 * MS
        assert len(jobs) == 3

    def test_negative_job_index_rejected(self):
        with pytest.raises(ValueError):
            task().job(-1)

    def test_job_quality_at_ideal_is_vmax(self):
        job = task(v_max=7.0).job(1)
        assert job.quality(job.ideal_start) == pytest.approx(7.0)
        assert job.max_quality() == pytest.approx(7.0)

    def test_job_ordering_by_ideal_start(self):
        early = task(name="early", ideal_offset=1 * MS).job(0)
        late = task(name="late", ideal_offset=9 * MS).job(0)
        assert early < late


class TestTaskSet:
    def make_set(self) -> TaskSet:
        return TaskSet(
            [
                task(name="a", period=20 * MS),
                task(name="b", period=40 * MS),
                task(name="c", period=10 * MS, ideal_offset=3 * MS, theta=2 * MS),
            ]
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TaskSet([task(name="x"), task(name="x")])

    def test_utilisation_is_sum(self):
        ts = self.make_set()
        assert ts.utilisation == pytest.approx(0.1 + 0.05 + 0.2)

    def test_hyperperiod(self):
        assert self.make_set().hyperperiod() == 40 * MS

    def test_jobs_cover_hyperperiod(self):
        jobs = self.make_set().jobs()
        assert len(jobs) == 2 + 1 + 4

    def test_dmpo_assigns_highest_priority_to_shortest_deadline(self):
        ts = self.make_set().assign_dmpo_priorities()
        priorities = {t.name: t.priority for t in ts}
        assert priorities["c"] > priorities["a"] > priorities["b"]

    def test_by_name(self):
        ts = self.make_set()
        assert ts.by_name("b").period == 40 * MS
        with pytest.raises(KeyError):
            ts.by_name("missing")

    def test_partition_by_device(self):
        ts = TaskSet([task(name="a", device="d0"), task(name="b", device="d1")])
        partitions = ts.partition()
        assert set(partitions) == {"d0", "d1"}
        assert [t.name for t in partitions["d0"]] == ["a"]

    def test_scaled_changes_utilisation(self):
        ts = self.make_set()
        scaled = ts.scaled(0.5)
        assert scaled.utilisation == pytest.approx(ts.utilisation * 0.5, rel=0.05)

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            self.make_set().scaled(0)

    def test_empty_taskset_hyperperiod_rejected(self):
        with pytest.raises(ValueError):
            TaskSet([]).hyperperiod()


class TestMakeTaskMs:
    def test_millisecond_conversion(self):
        t = make_task_ms("x", wcet_ms=1.5, period_ms=10, ideal_offset_ms=2, theta_ms=2.5)
        assert t.wcet == 1500
        assert t.period == 10_000
        assert t.ideal_offset == 2000
        assert t.theta == 2500
