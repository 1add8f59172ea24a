"""The array implementation of Algorithm 1 against its object-based oracle.

``build_dependency_graphs`` + ``decompose_graphs`` + ``LCCDAllocator``
must return exactly what ``lccd_oracle`` returns: the same kept and
sacrificed lists, the same component count, the same schedule entries in
the same insertion order and the same report, under both placement
policies.  The drawn partitions are crowded on purpose — equal ideal
starts, equal priorities, ``theta=0``, deadlines equal to the WCET,
release offsets that push deadlines past the horizon and loads above
one — so that direct fits, shifts and failures all occur.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lccd_oracle
from repro.core import IOTask, Schedule
from repro.core.schedule import FlatSchedule
from repro.scenario import create_scenario, materialize
from repro.scheduling import build_dependency_graphs, decompose_graphs
from repro.scheduling.lccd import LCCDAllocator

#: Periods dividing the horizon, so one horizon is one hyper-period.
PERIODS = (10, 20, 40)
HORIZON = 40


def draw_partition(integer):
    """Jobs of up to eight tasks on one device; ``integer(lo, hi)`` draws.

    A third of the tasks are long (up to half a period), the rest short, so
    that short jobs kept at their ideal starts fragment the long jobs'
    windows; a sixth have no slack (deadline equal to the WCET).
    """
    tasks = []
    for i in range(integer(1, 8)):
        period = PERIODS[integer(0, len(PERIODS) - 1)]
        wcet = integer(1, period // (2 if integer(0, 2) == 0 else 10))
        kind = integer(0, 5)
        deadline = wcet if kind == 0 else period if kind < 3 else integer(wcet, period)
        tasks.append(
            IOTask(
                name=f"t{i}",
                wcet=wcet,
                period=period,
                deadline=deadline,
                priority=integer(0, 2),
                ideal_offset=integer(0, deadline - wcet),
                theta=0,
                offset=0 if integer(0, 2) else integer(0, period - 1),
            )
        )
    return [job for task in tasks for job in task.jobs(HORIZON)]


@st.composite
def partitions(draw):
    return draw_partition(lambda lo, hi: draw(st.integers(lo, hi)))


def keys(jobs):
    return [job.key for job in jobs]


def entries(schedule):
    if schedule is None:
        return None
    return [(entry.job.key, entry.start) for entry in schedule.entries]


def assert_matches_oracle(jobs, horizon, prefer_ideal_placement):
    graphs = build_dependency_graphs(jobs)
    kept, sacrificed = decompose_graphs(graphs)
    flat, report = LCCDAllocator(prefer_ideal_placement).allocate(kept, sacrificed, horizon)
    schedule = None if flat is None else flat.to_schedule()
    oracle = lccd_oracle.schedule_jobs(
        jobs, horizon, prefer_ideal_placement=prefer_ideal_placement
    )
    oracle_kept, oracle_sacrificed, oracle_components, oracle_schedule, oracle_report = oracle
    assert keys(kept) == keys(oracle_kept)
    assert keys(sacrificed) == keys(oracle_sacrificed)
    assert len(graphs.component_starts) == len(graphs.components) == oracle_components
    assert entries(schedule) == entries(oracle_schedule)
    assert report == oracle_report
    return report


@pytest.mark.parametrize("prefer_ideal_placement", [False, True])
@settings(max_examples=300, deadline=None)
@given(jobs=partitions())
def test_array_heuristic_matches_oracle(prefer_ideal_placement, jobs):
    assert_matches_oracle(jobs, HORIZON, prefer_ideal_placement)


def test_drawn_partitions_reach_every_allocation_outcome():
    """The partition space above holds shifts, failures and direct-only runs."""
    rng = random.Random(20)
    reports = [
        assert_matches_oracle(draw_partition(rng.randint), HORIZON, prefer)
        for prefer in (False, True)
        for _ in range(150)
    ]
    assert any(r.feasible and r.allocated_by_shift for r in reports)
    assert any(r.feasible and r.allocated_direct and not r.allocated_by_shift for r in reports)
    assert any(not r.feasible and r.allocated_by_shift for r in reports)
    assert any(not r.feasible and not r.allocated_by_shift for r in reports)


def test_allocate_builds_no_schedule_object(monkeypatch):
    """The allocation returns start vectors; it adds no ``Schedule`` entry
    (476 jobs)."""
    scenario = create_scenario("paper-default").with_utilisation(0.7).with_workload(n_tasks=40)
    task_set = materialize(scenario, 0).task_set
    jobs = task_set.jobs(task_set.hyperperiod())
    kept, sacrificed = decompose_graphs(build_dependency_graphs(jobs))
    added = []
    monkeypatch.setattr(Schedule, "add", lambda self, entry: added.append(entry))
    flat, report = LCCDAllocator().allocate(kept, sacrificed, task_set.hyperperiod())
    assert isinstance(flat, FlatSchedule) and len(flat) == len(jobs) == 476
    assert report.allocated_by_shift > 0
    assert added == []
