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

import random
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


def random_task_set(rng: random.Random) -> TaskSet:
    tasks = []
    for index in range(rng.randint(1, 5)):
        period = rng.choice([10, 20, 40])
        v_min = rng.choice([0.0, 0.5, 1.0, 1.25])
        tasks.append(
            IOTask(
                name=f"t{index}",
                wcet=rng.randint(1, 5),
                period=period,
                ideal_offset=rng.randint(0, period),
                theta=rng.randint(0, period),
                device=rng.choice(DEVICES),
                v_max=v_min + rng.choice([0.0, 1.0, 2.5, 3.0, 7.0 / 3.0]),
                v_min=v_min,
                offset=rng.choice([0, 0, 3]),
            )
        )
    rng.shuffle(tasks)
    return TaskSet(tasks)


def device_schedules(rng, task_set, devices, near=None):
    """Random schedules for ``devices``: a subset of each device's jobs in
    random order, at random starts (or, often, at their start in ``near``)."""
    schedules = {}
    for device in devices:
        jobs = [job for job in task_set.jobs(HORIZON) if job.device == device]
        schedule = Schedule(device=device)
        for job in rng.sample(jobs, rng.randint(0, len(jobs))):
            start = rng.randint(0, 2 * HORIZON)
            if near is not None and device in near and job in near[device]:
                start = rng.choice([near[device].start_of(job), start])
            schedule.set_start(job, start)
        schedules[device] = schedule
    return schedules


def random_devices(rng):
    return rng.sample(DEVICES, rng.randint(0, len(DEVICES)))


def random_run(rng: random.Random):
    task_set = random_task_set(rng)
    offline = device_schedules(rng, task_set, random_devices(rng))
    runtime = device_schedules(rng, task_set, random_devices(rng), near=offline)
    return task_set, runtime, offline


#: Hypothesis draws one seeded generator per example and every choice comes
#: from it: a Hypothesis draw per task field and per job made generating an
#: example cost more than checking it.
RANDOMS = st.integers(0, 2**64 - 1).map(random.Random)
runs = RANDOMS.map(random_run)


def test_the_drawn_runs_cover_every_kind():
    """The kinds of run the earlier per-field Hypothesis draws made all occur."""
    cases = [random_run(random.Random(seed)) for seed in range(300)]
    assert {len(task_set) for task_set, _, _ in cases} == set(range(1, 6))
    assert any(not runtime for _, runtime, _ in cases)
    assert any(not offline for _, _, offline in cases)
    assert any(set(runtime) - set(offline) for _, runtime, offline in cases)
    assert any(
        not schedule.entries for _, runtime, _ in cases for schedule in runtime.values()
    )
    on_time = late = 0
    for _, runtime, offline in cases:
        for device, schedule in runtime.items():
            for entry in schedule.entries:
                if device in offline and entry.job in offline[device]:
                    on_time += entry.start == offline[device].start_of(entry.job)
                late += entry.start > HORIZON
    assert on_time and late


def scores(outcome):
    return (
        repr(outcome.psi),
        repr(outcome.upsilon),
        outcome.start_time_deviations(),
        repr(outcome.accuracy),
        outcome.matches_offline,
    )


@settings(max_examples=300, deadline=None)
@given(run=runs)
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


#: One way each of a hand-built stored schedule's entries can be broken.
BREAKS = [("task", "x"), ("job", -1), ("job", 1.0), ("job", "2"), ("start", 3.5), ("start", True)]


def random_stored_schedule(rng: random.Random):
    task_set = random_task_set(rng)
    jobs = task_set.jobs(HORIZON)
    entries = [
        {"task": job.task.name, "job": job.index, "start": rng.randint(0, 2 * HORIZON)}
        for job in (rng.choice(jobs) for _ in range(rng.randint(0, 12)))
    ]
    if entries and rng.random() < 0.5:
        # Break one entry the way a hand-built stored schedule might.
        field, value = rng.choice(BREAKS)
        at = rng.randrange(len(entries))
        entries[at] = dict(entries[at], **{field: value})
    device = rng.choice([None, *DEVICES])
    return task_set, {"device": device, "entries": entries}


stored_schedules = RANDOMS.map(random_stored_schedule)


def test_the_drawn_stored_schedules_cover_every_kind():
    """Every break, repeated entries, other devices' tasks and empty lists occur."""
    cases = [random_stored_schedule(random.Random(seed)) for seed in range(300)]
    entries = [entry for _, data in cases for entry in data["entries"]]
    for field, value in BREAKS:
        assert any(type(entry[field]) is type(value) and entry[field] == value for entry in entries)
    assert any(not data["entries"] for _, data in cases)
    assert {data["device"] for _, data in cases} == {None, *DEVICES}
    assert any(
        len({(entry["task"], entry["job"]) for entry in data["entries"]}) < len(data["entries"])
        for _, data in cases
    )
    assert any(
        data["device"] is not None
        and any(task.device != data["device"] for task in task_set)
        for task_set, data in cases
    )


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
@given(stored=stored_schedules)
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
