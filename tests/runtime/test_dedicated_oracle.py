"""The dedicated controller's one-pass model against its event-driven oracle.

``DedicatedControllerModel.execute`` loads the scheduling tables and calls
``IOController.run_tables``, one pass over each device's table.
``IOController.run`` executes the same tables on the discrete-event
simulator, through the request channels, the synchronisers and the devices.
On a fresh platform both must give the same run: the per-device runtime
``(key, start)`` lists in order, the executed, skipped and fault counts,
``events_processed``, ``exhausted``, the trace counts, ``matches_offline``
and the start-time deviations.  The runs cover one to three devices of
every device type, request latencies from 0 to past the last release, both
missing-request policies, fault plans, event budgets from none at all to
more than the run needs, and schedules whose jobs are listed out of start
order, so that a request still in flight holds back the ones behind it.
Where the oracle raises, the pass raises the same exception type.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MS, IOTask, Schedule, TaskSet
from repro.hardware import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    GPIOPin,
    IOController,
    UARTDevice,
)
from repro.hardware.memory import IOCommand
from repro.runtime import create_execution_model
from repro.scenario import (
    DEVICE_TYPES,
    MISSING_REQUEST_POLICIES,
    build_platform,
    create_scenario,
    materialize,
)
from repro.service import ScheduleRequest, SchedulerSpec
from repro.service.service import execute_request
from repro.sim import Simulator

METHODS = ("static", "gpiocp", "fps-offline")
PLATFORM = create_scenario("short-hyperperiod").platform


@pytest.fixture(scope="module")
def systems():
    """(task set, {method: schedules}) of a one-, two- and three-device system."""
    base = create_scenario("short-hyperperiod")
    systems = []
    for n_devices in (1, 2, 3):
        scenario = base.with_workload(
            generator=replace(base.workload.generator, n_devices=n_devices)
        )
        task_set = materialize(scenario, 0).task_set
        by_method = {}
        for method in METHODS:
            request = ScheduleRequest(scenario=scenario, spec=SchedulerSpec.parse(method))
            by_method[method] = execute_request(request).device_schedules(task_set)
        systems.append((task_set, by_method))
    return systems


def observables(result):
    return {
        "starts": [
            (device, [(entry.job.key, entry.start) for entry in schedule.entries])
            for device, schedule in result.runtime_schedules.items()
        ],
        "counts": (result.executed_jobs, result.skipped_jobs, result.faults_detected),
        "budget": (result.events_processed, result.exhausted),
        "trace_counts": result.trace_counts,
        "matches_offline": result.matches_offline,
        "deviations": result.start_time_deviations(),
        "metrics": (result.psi, result.upsilon),
    }


def outcome(run):
    """A run's observables, or the type of the exception it raised."""
    try:
        return observables(run())
    except (KeyError, RuntimeError, ValueError) as error:
        return type(error)


def model_run(task_set, schedules, controller, max_events=None):
    """The execution model on ``controller``: phases 1 and 2, then the pass."""
    platform = replace(build_platform(PLATFORM), controller=controller)
    model = create_execution_model("dedicated-controller")
    return lambda: model.execute(task_set, schedules, platform, max_events=max_events)


def oracle_run(task_set, schedules, controller, max_events=None):
    """The three phases on ``controller``, phase 3 on the event-driven simulator."""

    def run():
        controller.preload_taskset(task_set)
        controller.load_system_schedule(schedules)
        return controller.run(Simulator(), max_events=max_events)

    return run


def both(task_set, schedules, make_controller, max_events=None):
    """(pass, oracle) outcomes, each on a controller of its own."""
    return (
        outcome(model_run(task_set, schedules, make_controller(), max_events)),
        outcome(oracle_run(task_set, schedules, make_controller(), max_events)),
    )


def triggers(schedules):
    """Start time -> how many devices' tables fire then."""
    return Counter(start for s in schedules.values() for start in {e.start for e in s.entries})


def equal_time_splits(schedules):
    """The budgets that fire some, but not all, of the triggers due at one time."""
    splits, fired = [], 0
    for start, devices in sorted(triggers(schedules).items()):
        splits += range(fired + 1, fired + devices)
        fired += devices
    return splits


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    system=st.integers(0, 2),
    source=st.sampled_from(METHODS + ("none",)),
    device_type=st.sampled_from(DEVICE_TYPES),
    policy=st.sampled_from(MISSING_REQUEST_POLICIES),
)
def test_the_pass_matches_the_event_driven_oracle(
    systems, data, system, source, device_type, policy
):
    task_set, by_method = systems[system]
    # The task order decides the device order, which orders equal-time events.
    tasks = data.draw(st.permutations(list(task_set)), label="task order")
    if data.draw(st.integers(0, 7), label="drop tasks") == 0:
        # Jobs of a task the controller never stored raise once one runs.
        tasks = tasks[: data.draw(st.integers(1, len(tasks)), label="kept")]
    schedules = {} if source == "none" else by_method[source]
    if schedules and data.draw(st.booleans(), label="list jobs out of order"):
        schedules = {
            device: Schedule(data.draw(st.permutations(schedule.entries)), device=device)
            for device, schedule in schedules.items()
        }
    releases = sorted({e.job.release for s in schedules.values() for e in s.entries}) or [0]
    latency = data.draw(
        st.integers(0, 2) | st.sampled_from(releases) | st.integers(0, releases[-1] + 1),
        label="request latency",
    )
    names = [task.name for task in task_set]
    faults = data.draw(
        st.lists(
            st.builds(
                FaultSpec,
                kind=st.sampled_from(FAULT_KINDS),
                task_name=st.sampled_from(names),
                job_index=st.none() | st.integers(0, 6),
                delay=st.integers(0, 5),
            ),
            max_size=4,
        ),
        label="faults",
    )
    events = sum(triggers(schedules).values())
    budgets = [
        data.draw(
            st.none()
            | st.just(0)
            | st.integers(1, events + 2)
            | st.sampled_from([1, 2, max(events - 1, 1), max(events, 1), events + 1]),
            label="max_events",
        )
    ]
    splits = equal_time_splits(schedules)
    if splits:
        budgets.append(data.draw(st.sampled_from(splits), label="split equal-time triggers"))
    spec = replace(
        PLATFORM,
        device_type=device_type,
        request_latency=latency,
        missing_request_policy=policy,
    )

    def controller():
        return build_platform(spec, fault_injector=FaultInjector(faults)).controller

    for max_events in budgets:
        fast, oracle = both(TaskSet(tasks), schedules, controller, max_events)
        assert fast == oracle
        if not isinstance(oracle, type):
            assert oracle["budget"] == (
                events if max_events is None else min(events, max_events),
                max_events is not None and events > max_events,
            )


# -- pinned runs ---------------------------------------------------------------


def make_task(name, wcet, period, delta, device="dev0"):
    return IOTask(
        name=name,
        wcet=wcet * MS,
        period=period * MS,
        ideal_offset=delta * MS,
        theta=(period // 4) * MS,
        device=device,
    )


def listed(*pairs):
    """A schedule listing ``(job, start in ms)`` pairs in the given order."""
    schedule = Schedule()
    for job, start in pairs:
        schedule.set_start(job, start * MS)
    return schedule


def test_a_request_in_flight_holds_back_the_ones_behind_it():
    """``a[1]`` is listed first, so its request heads the FIFO until its
    release at 40 ms; the requests of ``a[0]`` and ``b[0]``, released at 0,
    wait behind it, and both jobs find their task disabled."""
    a, b = make_task("a", 2, 40, delta=10), make_task("b", 2, 80, delta=20)
    task_set = TaskSet([a, b])
    schedules = {"dev0": listed((a.job(1), 50), (a.job(0), 10), (b.job(0), 20))}

    def controller():
        return IOController(request_latency=0)

    fast, oracle = both(task_set, schedules, controller)
    assert fast == oracle
    assert fast["counts"] == (1, 2, 2)
    assert fast["starts"] == [("dev0", [(("a", 1), 50 * MS)])]
    assert fast["trace_counts"] == {"job-skipped": 2, "job-start": 1}
    # Listed in start order, the same requests enable every job in time.
    in_order = {"dev0": listed((a.job(0), 10), (b.job(0), 20), (a.job(1), 50))}
    assert both(task_set, in_order, controller)[0]["counts"] == (3, 0, 0)


def commands(**opcodes_of):
    """A command builder: one command per opcode that ``opcodes_of`` lists
    for the task, or a single ``write``."""

    def build(task):
        opcodes = opcodes_of.get(task.name, ["write"])
        durations = [1] * (len(opcodes) - 1) + [task.wcet - len(opcodes) + 1]
        return [
            IOCommand(opcode, task.device, duration=duration)
            for opcode, duration in zip(opcodes, durations)
        ]

    return build


def uart_on(*uart_devices):
    return lambda name: UARTDevice(name) if name in uart_devices else GPIOPin(name)


A0 = make_task("a", 2, 40, delta=10, device="d0")
B0 = make_task("b", 2, 40, delta=20, device="d0")
C1 = make_task("c", 2, 40, delta=30, device="d1")
ERRORS = {
    # Two executed jobs overlap on one device.
    "overlap": (
        [A0, B0],
        {"d0": listed((A0.job(0), 10), (B0.job(0), 11))},
        {},
        RuntimeError,
    ),
    # The first command is refused before the device is found busy.
    "refused-while-busy": (
        [A0, B0],
        {"d0": listed((A0.job(0), 10), (B0.job(0), 11))},
        {"command_builder": commands(b=["toggle", "write"]), "device_factory": uart_on("d0")},
        ValueError,
    ),
    # The first command is accepted and finds the device busy.
    "busy-before-refused": (
        [A0, B0],
        {"d0": listed((A0.job(0), 10), (B0.job(0), 11))},
        {"command_builder": commands(b=["write", "toggle"]), "device_factory": uart_on("d0")},
        RuntimeError,
    ),
    "unsupported-command": (
        [A0],
        {"d0": listed((A0.job(0), 10))},
        {"command_builder": commands(a=["toggle"]), "device_factory": uart_on("d0")},
        ValueError,
    ),
    "task-missing-from-the-task-set": (
        [A0],
        {"d0": listed((A0.job(0), 10), (B0.job(0), 20))},
        {},
        KeyError,
    ),
    "negative-start": (
        [A0],
        {"d0": listed((A0.job(0), -1))},
        {},
        ValueError,
    ),
    # d1 comes first in device order and fails at 30 ms; d0's overlap at
    # 11 ms is the first failing event.
    "first-failing-event-across-devices": (
        [C1, A0, B0],
        {
            "d0": listed((A0.job(0), 10), (B0.job(0), 11)),
            "d1": listed((C1.job(0), 30)),
        },
        {"command_builder": commands(c=["toggle"]), "device_factory": uart_on("d1")},
        RuntimeError,
    ),
}


@pytest.mark.parametrize("case", ERRORS, ids=list(ERRORS))
def test_the_pass_raises_where_the_oracle_raises(case):
    tasks, schedules, options, error = ERRORS[case]
    fast, oracle = both(TaskSet(tasks), schedules, lambda: IOController(**options))
    assert fast is oracle is error


def test_an_error_past_the_budget_is_never_reached():
    """The overlap is in the second event; a budget of one event stops
    before it."""
    schedules = {"d0": listed((A0.job(0), 10), (B0.job(0), 11))}
    fast, oracle = both(TaskSet([A0, B0]), schedules, IOController, max_events=1)
    assert fast == oracle
    assert oracle["counts"] == (1, 0, 0)
    assert oracle["budget"] == (1, True)


def test_a_second_run_repeats_the_first():
    """``IOController.run`` starts from the loaded state each time: a second
    run on a fresh simulator, after one load, returns the first run's result
    (the devices' busy times, channels, enable bits and fault counters of
    the first run do not carry over)."""
    scenario = create_scenario("short-hyperperiod")
    system = materialize(scenario, 0)
    request = ScheduleRequest(scenario=scenario, spec=SchedulerSpec.parse("static"))
    controller = system.platform.controller
    controller.preload_taskset(system.task_set)
    controller.load_system_schedule(execute_request(request).device_schedules(system.task_set))
    first = observables(controller.run(Simulator()))
    assert first["counts"][0] > 0
    assert observables(controller.run(Simulator())) == first
    assert observables(controller.run_tables()) == first
