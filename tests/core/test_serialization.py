"""Unit tests for JSON serialisation of task sets and schedules."""

import json

import pytest

from repro.core import MS, IOTask, TaskSet
from repro.core.serialization import (
    atomic_write_json,
    schedule_from_dict,
    schedule_to_dict,
    task_from_dict,
    task_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.scheduling import HeuristicScheduler


def make_taskset() -> TaskSet:
    return TaskSet(
        [
            IOTask(name="a", wcet=2 * MS, period=40 * MS, ideal_offset=10 * MS,
                   theta=10 * MS, priority=2, v_max=3.0),
            IOTask(name="b", wcet=4 * MS, period=80 * MS, ideal_offset=30 * MS,
                   theta=20 * MS, priority=1, v_max=2.0, device="dev1"),
        ]
    )


class TestTaskRoundTrip:
    def test_task_dict_round_trip(self):
        task = make_taskset()[0]
        assert task_from_dict(task_to_dict(task)) == task

    def test_unknown_field_rejected(self):
        data = task_to_dict(make_taskset()[0])
        data["bogus"] = 1
        with pytest.raises(ValueError):
            task_from_dict(data)

    def test_taskset_json_round_trip(self):
        original = make_taskset()
        restored = taskset_from_dict(json.loads(json.dumps(taskset_to_dict(original))))
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a == b
        assert restored.utilisation == pytest.approx(original.utilisation)


class TestScheduleRoundTrip:
    def test_schedule_json_round_trip(self):
        task_set = make_taskset()
        result = HeuristicScheduler().schedule_taskset(task_set)
        for device, partition in task_set.partition().items():
            schedule = result.per_device[device].schedule
            text = json.dumps(schedule_to_dict(schedule, task_set))
            restored = schedule_from_dict(json.loads(text), task_set)
            assert len(restored) == len(schedule)
            for entry in schedule.entries:
                assert restored.start_of(entry.job) == entry.start

    def test_schedule_refers_to_tasks_by_name(self):
        task_set = make_taskset()
        result = HeuristicScheduler().schedule_taskset(task_set)
        data = schedule_to_dict(result.per_device["dev0"].schedule, task_set)
        assert {entry["task"] for entry in data["entries"]} == {"a"}


class TestAtomicWriteJson:
    """The shared write-to-temp + os.replace helper every store uses."""

    def test_writes_payload_and_returns_path(self, tmp_path):
        path = atomic_write_json(tmp_path / "out.json", {"b": 2, "a": 1})
        assert path == tmp_path / "out.json"
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}
        # Sorted keys by default (content-hash friendly).
        assert path.read_text().index('"a"') < path.read_text().index('"b"')

    def test_overwrite_replaces_content_completely(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"old": "x" * 1000})
        atomic_write_json(target, {"new": 1})
        assert json.loads(target.read_text()) == {"new": 1}

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_json(tmp_path / "a.json", [1, 2, 3])
        atomic_write_json(tmp_path / "b.json", [4])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_failed_write_cleans_up_and_preserves_target(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"intact": True})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})  # not JSON-serialisable
        # The original file is untouched and no temp litter remains.
        assert json.loads(target.read_text()) == {"intact": True}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
