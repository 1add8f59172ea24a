"""Flat schedules against the object forms they replace in the run-time layer.

* Scoring: ``ExecutionOutcome`` computes Psi, Upsilon, the start-time
  deviations, the accuracy and ``matches_offline`` as reductions over flat
  runtime and offline schedules.  On random runtime and offline schedules,
  including devices without an offline schedule and empty runs, each must
  have the ``repr`` the object rules of ``outcome_oracle`` give, whether the
  outcome was built from the flat form or from ``Schedule`` objects.
* Decoding: ``flat_schedule_from_dict`` must give the schedule
  ``schedule_from_dict`` gives, entry for entry and in order, or raise the
  same exception, on stored entries in any order, listed twice, naming
  unknown tasks, negative or non-integer job indexes, non-integer starts
  and tasks of another device.
"""

from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

import outcome_oracle
from repro.core import IOTask, Schedule, ScheduleEntry, TaskSet
from repro.core.schedule import FlatSchedule, task_table
from repro.core.serialization import flat_schedule_from_dict, schedule_from_dict
from repro.runtime.models import ExecutionOutcome

DEVICES = ("d0", "d1", "d2")
HORIZON = 80


@st.composite
def task_sets(draw):
    tasks = []
    for index in range(draw(st.integers(1, 5))):
        period = draw(st.sampled_from([10, 20, 40]))
        wcet = draw(st.integers(1, 5))
        v_min = draw(st.sampled_from([0.0, 0.5, 1.0, 1.25]))
        tasks.append(
            IOTask(
                name=f"t{index}",
                wcet=wcet,
                period=period,
                ideal_offset=draw(st.integers(0, period)),
                theta=draw(st.integers(0, period)),
                device=draw(st.sampled_from(DEVICES)),
                v_max=v_min + draw(st.sampled_from([0.0, 1.0, 2.5, 3.0, 7.0 / 3.0])),
                v_min=v_min,
                offset=draw(st.sampled_from([0, 0, 3])),
            )
        )
    return TaskSet(draw(st.permutations(tasks)))


def device_schedules(draw, task_set, devices, near=None):
    """Random schedules for ``devices``: a subset of each device's jobs in
    random order, at random starts (or, often, at their start in ``near``)."""
    schedules = {}
    for device in devices:
        jobs = [job for job in task_set.jobs(HORIZON) if job.device == device]
        chosen = draw(st.lists(st.sampled_from(jobs), unique=True) if jobs else st.just([]))
        schedule = Schedule(device=device)
        for job in chosen:
            start = draw(st.integers(0, 2 * HORIZON))
            if near is not None and device in near and job in near[device]:
                start = draw(st.sampled_from([near[device].start_of(job), start]))
            schedule.set_start(job, start)
        schedules[device] = schedule
    return schedules


@st.composite
def runs(draw):
    task_set = draw(task_sets())
    offline_devices = draw(st.lists(st.sampled_from(DEVICES), unique=True))
    offline = device_schedules(draw, task_set, offline_devices)
    runtime_devices = draw(st.lists(st.sampled_from(DEVICES), unique=True))
    runtime = device_schedules(draw, task_set, runtime_devices, near=offline)
    return task_set, runtime, offline


def scores(outcome):
    return (
        repr(outcome.psi),
        repr(outcome.upsilon),
        outcome.start_time_deviations(),
        repr(outcome.accuracy),
        outcome.matches_offline,
    )


@settings(max_examples=300, deadline=None)
@given(run=runs())
def test_vector_scores_match_the_object_rules(run):
    task_set, runtime, offline = run
    expected = (
        repr(outcome_oracle.psi(runtime)),
        repr(outcome_oracle.upsilon(runtime)),
        outcome_oracle.start_time_deviations(runtime, offline),
        repr(outcome_oracle.accuracy(runtime, offline)),
        outcome_oracle.matches_offline(runtime, offline),
    )
    tasks = task_table(chain(runtime.values(), offline.values()), task_set)
    flat = ExecutionOutcome(
        runtime={device: FlatSchedule.from_schedule(s, tasks) for device, s in runtime.items()},
        offline={device: FlatSchedule.from_schedule(s, tasks) for device, s in offline.items()},
    )
    assert scores(flat) == expected
    objects = ExecutionOutcome(runtime_schedules=runtime, offline_schedules=offline)
    assert scores(objects) == expected
    # The object views rebuilt from the vectors hold the same entries, in order.
    for built, given_ in ((flat.runtime_schedules, runtime), (flat.offline_schedules, offline)):
        assert {d: s.entries for d, s in built.items()} == {
            d: s.entries for d, s in given_.items()
        }


def test_an_empty_run_scores_like_the_object_rules():
    outcome = ExecutionOutcome(runtime={}, offline={})
    assert scores(outcome) == ("1.0", "1.0", [], "1.0", True)


@st.composite
def stored_schedules(draw):
    task_set = draw(task_sets())
    jobs = task_set.jobs(HORIZON)
    entries = [
        {"task": job.task.name, "job": job.index, "start": draw(st.integers(0, 2 * HORIZON))}
        for job in draw(st.lists(st.sampled_from(jobs), max_size=12))
    ]
    entries = draw(st.permutations(entries))
    if entries and draw(st.booleans()):
        # Break one entry the way a hand-built stored schedule might.
        at = draw(st.integers(0, len(entries) - 1))
        field, value = draw(
            st.sampled_from(
                [
                    ("task", "x"),
                    ("job", -1),
                    ("job", 1.0),
                    ("job", "2"),
                    ("start", 3.5),
                    ("start", True),
                ]
            )
        )
        entries[at] = dict(entries[at], **{field: value})
    device = draw(st.sampled_from([None, *DEVICES]))
    return task_set, {"device": device, "entries": entries}


def decoded(decode, data, task_set):
    try:
        schedule = decode(data, task_set)
    except Exception as error:  # noqa: BLE001 - the exception is the observable
        return type(error), error.args
    if isinstance(schedule, FlatSchedule):
        assert schedule.tasks is task_set
        schedule = schedule.to_schedule()
    return schedule.device, schedule.entries


@settings(max_examples=300, deadline=None)
@given(stored=stored_schedules())
def test_the_vector_decode_matches_the_object_decode(stored):
    task_set, data = stored
    assert decoded(flat_schedule_from_dict, data, task_set) == decoded(
        schedule_from_dict, data, task_set
    )


def test_a_task_set_lacking_a_scheduled_task_is_extended_by_name():
    a, b = IOTask("a", wcet=1, period=10), IOTask("b", wcet=1, period=10)
    schedule = Schedule([ScheduleEntry(b.job(1), 12), ScheduleEntry(a.job(0), 3)])
    tasks = task_table([schedule], TaskSet([a]))
    assert [task.name for task in tasks] == ["a", "b"]
    assert task_table([schedule], tasks) is tasks
    flat = FlatSchedule.from_schedule(schedule, tasks)
    assert (flat.task.tolist(), flat.job.tolist(), flat.start.tolist()) == ([1, 0], [1, 0], [12, 3])
    assert flat.to_schedule().entries == schedule.entries
    assert flat.table_order().start.tolist() == [3, 12]
