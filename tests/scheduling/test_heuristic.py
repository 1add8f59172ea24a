"""Unit tests for the heuristic ("static") scheduler — Algorithm 1."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import MS, IOTask, TaskSet, validate_schedule
from repro.core.memo import reset_memos
from repro.scheduling import FPSOfflineScheduler, HeuristicScheduler, heuristic
from repro.taskgen import SystemGenerator


def make_task(name, wcet, period, delta, priority=1, device="dev0"):
    return IOTask(
        name=name,
        wcet=wcet * MS,
        period=period * MS,
        priority=priority,
        ideal_offset=delta * MS,
        theta=(period // 4) * MS,
        device=device,
    )


class TestHeuristicScheduler:
    def test_empty_partition_is_schedulable(self):
        result = HeuristicScheduler().schedule_jobs([], horizon=1000)
        assert result.schedulable

    def test_conflict_free_jobs_all_exact(self):
        ts = TaskSet([make_task("a", 2, 40, delta=10), make_task("b", 2, 40, delta=20)])
        result = HeuristicScheduler().schedule_taskset(ts)
        assert result.schedulable
        assert result.psi == pytest.approx(1.0)

    def test_conflicting_pair_keeps_one_exact(self):
        ts = TaskSet([make_task("a", 4, 40, delta=10), make_task("b", 4, 40, delta=11)])
        result = HeuristicScheduler().schedule_taskset(ts)
        assert result.schedulable
        assert result.psi == pytest.approx(0.5)
        device_result = result.per_device["dev0"]
        assert device_result.info["n_sacrificed"] == 1

    def test_produced_schedules_always_valid(self):
        for seed in range(6):
            task_set = SystemGenerator(rng=seed).generate(0.5)
            result = HeuristicScheduler().schedule_taskset(task_set)
            if not result.schedulable:
                continue
            for device, partition in task_set.partition().items():
                schedule = result.per_device[device].schedule
                violations = validate_schedule(schedule, partition.jobs(), raise_on_error=False)
                assert violations == []

    def test_psi_at_least_as_high_as_fps(self):
        for seed in range(5):
            task_set = SystemGenerator(rng=100 + seed).generate(0.5)
            static = HeuristicScheduler().schedule_taskset(task_set)
            fps = FPSOfflineScheduler().schedule_taskset(task_set)
            if static.schedulable and fps.schedulable:
                assert static.psi >= fps.psi

    def test_multi_device_partitions_scheduled_independently(self):
        ts = TaskSet(
            [
                make_task("a", 4, 40, delta=10, device="d0"),
                make_task("b", 4, 40, delta=10, device="d1"),
            ]
        )
        result = HeuristicScheduler().schedule_taskset(ts)
        # Identical ideal times on different devices never conflict.
        assert result.schedulable
        assert result.psi == pytest.approx(1.0)

    def test_info_counts_are_consistent(self):
        ts = TaskSet(
            [
                make_task("a", 4, 40, delta=10),
                make_task("b", 4, 40, delta=11),
                make_task("c", 4, 40, delta=30),
            ]
        )
        info = HeuristicScheduler().schedule_taskset(ts).per_device["dev0"].info
        assert info["n_kept"] + info["n_sacrificed"] == info["n_input_jobs"]
        assert info["allocated_direct"] + info["allocated_by_shift"] == info["n_sacrificed"]

    def test_reports_infeasible_without_raising(self):
        # Overloaded partition (utilisation > 1): must return infeasible cleanly.
        ts = TaskSet(
            [
                make_task("a", 12, 20, delta=5),
                make_task("b", 12, 20, delta=6),
            ]
        )
        result = HeuristicScheduler().schedule_taskset(ts)
        assert not result.schedulable

    def test_kept_job_past_its_deadline_is_reported_not_raised(self):
        # t0's ideal execution [3, 6) ends after its deadline 4.  Packing it
        # right to make room for the sacrificed t2 would open an inverted
        # gap, which the object-based allocator turned into a ValueError.
        tasks = [
            IOTask(name="t0", wcet=3, period=20, deadline=4, ideal_offset=3),
            IOTask(name="t1", wcet=2, period=20, deadline=17),
            IOTask(name="t2", wcet=4, period=20, deadline=9),
        ]
        result = HeuristicScheduler().schedule_jobs([t.job(0) for t in tasks], horizon=20)
        assert not result.schedulable
        assert result.info["failed_job"] == "t2[0]"

    def test_a_job_lost_before_allocation_leaves_the_result_unschedulable(self, monkeypatch):
        # The result is checked against the listed jobs, not only against
        # the rows the allocator placed.
        original = heuristic.decompose_graphs

        def drop_last_kept(graphs):
            kept, sacrificed = original(graphs)
            return kept[:-1], sacrificed

        monkeypatch.setattr(heuristic, "decompose_graphs", drop_last_kept)
        reset_memos()
        tasks = [make_task("a", 2, 10, delta=1), make_task("b", 2, 20, delta=2)]
        jobs = [tasks[0].job(0), tasks[0].job(1), tasks[1].job(0)]
        result = HeuristicScheduler().schedule_jobs(jobs, horizon=20 * MS)
        reset_memos()
        assert not result.schedulable
        assert len(result.flat) == 2
        assert validate_schedule(result.schedule, jobs, raise_on_error=False) == [
            "job a[1] is missing from the schedule"
        ]


def test_static_runs_without_networkx():
    """``repro`` imports and schedules a system with networkx unavailable."""
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "from repro.scheduling import create_scheduler\n"
        "from repro.taskgen import SystemGenerator\n"
        "result = create_scheduler('static').schedule_taskset(SystemGenerator(rng=0).generate(0.5))\n"
        "print(sorted(result.per_device))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    assert "dev0" in completed.stdout
