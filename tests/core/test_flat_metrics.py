"""Scheduler results on start vectors score and check as the object walks did.

The vector forms — ``validate_schedule`` and ``schedule_metrics`` of a
``FlatSchedule``, a system result's Psi and Upsilon, ``ga_best_objectives``
and ``FlatSchedule.as_added`` — are held to the ``Schedule``-object walks
kept in ``metrics_oracle.py`` on random systems: partitions of one to three
devices listed out of name order, start vectors with early starts, late
finishes, overlaps and equal starts, jobs left out, empty schedules and
infeasible devices.  Messages must match in order and floats bit for bit.

Hypothesis draws the utility bounds and one seeded ``random.Random`` per
task set and per system (``RANDOMS``); every other choice (the devices, the
task parameters, which devices get a schedule or best points and each job's
place and start) comes from that generator.  A Hypothesis draw per parameter
and per job made generating a system cost several times as much as checking
it.
"""

import random
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle as oracle
from repro.core import IOTask, Schedule, TaskSet, schedule_metrics, validate_schedule
from repro.core.schedule import FlatSchedule, ScheduleValidationError
from repro.scheduling.base import ScheduleResult, SystemScheduleResult
from repro.service import ga_best_objectives

HORIZON = 40
NAMES = ("e", "b", "g", "a", "f", "c", "h", "d")


#: Distances of a drawn start from the job's ideal start; a third are 0.
START_SHIFTS = (0, 0, 0, -7, -2, -1, 1, 3, 9)

#: The utility bounds are Hypothesis floats, so 0.0, 3.0 and tiny values come up.
UTILITIES = st.floats(0.0, 3.0, allow_nan=False)

#: The generator of every other choice, seeded by one draw.
RANDOMS = st.integers(0, 2**64 - 1).map(random.Random)


@st.composite
def task_sets(draw) -> TaskSet:
    """Up to eight tasks on up to three devices, named out of list order."""
    rng = draw(RANDOMS)
    devices = rng.sample(["d2", "d0", "d1"], rng.randint(1, 3))
    tasks = []
    for name in NAMES[: rng.randint(1, len(NAMES))]:
        period = rng.choice((10, 20, 40))
        wcet = rng.randint(1, 6)
        deadline = rng.randint(wcet, period)
        v_min = draw(UTILITIES)
        tasks.append(
            IOTask(
                name=name,
                wcet=wcet,
                period=period,
                deadline=deadline,
                priority=rng.randint(0, 3),
                ideal_offset=rng.randint(0, deadline),
                theta=rng.randint(0, 8),
                device=rng.choice(devices),
                v_max=v_min + draw(UTILITIES),
                v_min=v_min,
                offset=rng.randint(0, 5),
            )
        )
    return TaskSet(tasks)


def flat_over(task_set: TaskSet, jobs, starts, device=None) -> FlatSchedule:
    """``jobs`` at ``starts`` over the table ``task_set``."""
    index = task_set.name_index
    return FlatSchedule(
        task_set,
        np.array([index[job.task.name] for job in jobs], dtype=np.int64),
        np.array([job.index for job in jobs], dtype=np.int64),
        np.array(starts, dtype=np.int64),
        device,
    )


def device_schedule(rng, task_set: TaskSet, device: str):
    """``(schedule, flat, jobs)``: some of the device's jobs, in a drawn
    insertion order, at drawn distances from their ideal starts."""
    jobs = [job for job in task_set.jobs(HORIZON) if job.device == device]
    held = [job for job in jobs if rng.randint(0, 5)]
    rng.shuffle(held)
    starts = [max(0, job.ideal_start + rng.choice(START_SHIFTS)) for job in held]
    schedule = Schedule(device=device)
    for job, start in zip(held, starts):
        schedule.set_start(job, start)
    return schedule, flat_over(task_set, held, starts, device), jobs


@st.composite
def systems(draw):
    """A task set and, per device in a drawn order, its schedule (or none)
    and, sometimes, two best points."""
    task_set = draw(task_sets())
    rng = draw(RANDOMS)
    devices = sorted({task.device for task in task_set})
    rng.shuffle(devices)
    per_device = {}
    for device in devices:
        drawn = device_schedule(rng, task_set, device)
        if not rng.randint(0, 4):
            drawn = (None, None, drawn[2])
        best = None
        if drawn[0] is not None and rng.randint(0, 1):
            best = tuple(device_schedule(rng, task_set, device) for _ in range(2))
            if not all(point[0] for point in best):
                best = None  # a search's best points hold every job
        per_device[device] = (drawn, best)
    return task_set, per_device


def entries(schedule: Optional[Schedule]) -> Optional[List[Tuple[Tuple[str, int], int]]]:
    return None if schedule is None else [(e.job.key, e.start) for e in schedule.entries]


@settings(max_examples=300, deadline=None)
@given(systems())
def test_checks_and_metrics_match_the_object_walks(system):
    task_set, per_device = system
    for (schedule, flat, jobs), _ in per_device.values():
        if flat is None:
            continue
        required = flat_over(task_set, jobs, [job.ideal_start for job in jobs])
        expected = oracle.validate_schedule(schedule, jobs, raise_on_error=False)
        assert validate_schedule(flat, required, raise_on_error=False) == expected
        assert validate_schedule(schedule, jobs, raise_on_error=False) == expected
        assert validate_schedule(flat, raise_on_error=False) == oracle.validate_schedule(
            schedule, raise_on_error=False
        )
        for strict in (True, False):
            metrics = oracle.schedule_metrics(schedule, jobs, strict=strict)
            assert schedule_metrics(flat, required, strict=strict) == metrics
            assert schedule_metrics(schedule, jobs, strict=strict) == metrics
        if expected:
            with pytest.raises(ScheduleValidationError) as raised:
                validate_schedule(flat, required)
            assert str(raised.value) == "; ".join(expected)


def result_of(drawn, best) -> ScheduleResult:
    schedule, flat, jobs = drawn
    if flat is None:
        return ScheduleResult.infeasible(n_jobs=len(jobs))
    metrics = schedule_metrics(flat, strict=False)
    points = None if best is None else (best[0][1], best[1][1])
    return ScheduleResult(metrics.schedulable, flat, metrics, {}, points)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_system_and_best_points_match_the_object_walks(system):
    _, per_device = system
    results: Dict[str, ScheduleResult] = {
        device: result_of(drawn, best) for device, (drawn, best) in per_device.items()
    }
    result = SystemScheduleResult(schedulable=True, per_device=results)
    schedules = [drawn[0] for drawn, _ in per_device.values()]
    assert (result.psi, result.upsilon) == oracle.system_psi_upsilon(schedules)
    points = [
        (drawn[0], *((None, None) if best is None else (best[0][0], best[1][0])))
        for drawn, best in per_device.values()
    ]
    assert ga_best_objectives(result) == oracle.ga_best_objectives(points)
    for device, (drawn, best) in per_device.items():
        assert entries(results[device].schedule) == entries(drawn[0])
        if best is not None:
            info = results[device].info
            assert entries(info["best_psi_schedule"]) == entries(best[0][0])
            assert entries(info["best_upsilon_schedule"]) == entries(best[1][0])


@settings(max_examples=200, deadline=None)
@given(task_sets(), RANDOMS)
def test_as_added_is_what_a_schedule_holds(task_set, rng):
    """Rows listed more than once, and rows of several devices."""
    rows = rng.choices(task_set.jobs(HORIZON), k=rng.randint(0, 12))
    starts = [rng.randint(0, 50) for _ in rows]
    flat = flat_over(task_set, rows, starts)
    schedule = Schedule()
    try:
        for job, start in zip(rows, starts):
            schedule.set_start(job, start)
    except ScheduleValidationError as error:
        with pytest.raises(ScheduleValidationError) as raised:
            flat.as_added()
        assert str(raised.value) == str(error)
        return
    added = flat.as_added()
    assert added.device == schedule.device
    assert entries(added.to_schedule()) == entries(schedule)
