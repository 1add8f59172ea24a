"""The complete I/O controller: controller memory + one processor per device.

The controller realises the three phases of Section IV:

1. **Pre-loading** — :meth:`IOController.preload_taskset` groups the I/O
   commands of every timed I/O task and stores them in the controller memory;
2. **Offline scheduling** — :meth:`IOController.load_tables` stores the
   start times produced by any of the offline schedulers, as flat schedules,
   into the per-device scheduling tables (:meth:`IOController.load_system_schedule`
   takes :class:`~repro.core.schedule.Schedule` objects);
3. **Task execution** — :meth:`IOController.run` executes the schedule on a
   discrete-event simulator; application CPUs enable each task through the
   request channels, the synchronisers trigger the EXUs at the stored start
   times, and the devices record the actual operation times.

:meth:`IOController.run_tables` computes what phase 3 computes in one pass
over each device's loaded table, with no simulator, channel message or device
operation; the execution models use it.  :meth:`IOController.run` and the
objects it drives stay as the object API of the three phases and as the
oracle the tests hold the pass to.

:class:`ControllerRunResult` compares the run-time behaviour against the
offline schedule (the dedicated controller reproduces it exactly) and exposes
the achieved Psi/Upsilon, all as reductions over flat schedules.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics import flat_psi, flat_upsilon
from repro.core.schedule import FlatSchedule, Schedule, shared_tasks, task_table
from repro.core.task import IOJob, IOTask, TaskSet
from repro.hardware.devices import GPIOPin, IODevice
from repro.hardware.faults import FaultInjector
from repro.hardware.memory import ControllerMemory, IOCommand
from repro.hardware.processor import ControllerProcessor
from repro.hardware.timer import GlobalTimer
from repro.sim.engine import Simulator

#: Builds the command sequence of a task; the default is a single write
#: lasting the task's WCET (the paper groups "continuous I/O commands" into
#: one timed I/O operation).
CommandBuilder = Callable[[IOTask], Sequence[IOCommand]]


def default_command_builder(task: IOTask) -> List[IOCommand]:
    """One ``write`` command occupying the device for the task's WCET.

    Every built-in device (GPIO, UART, SPI, CAN) accepts ``write``.
    """
    return [IOCommand(opcode="write", device=task.device, value=1, duration=task.wcet)]


class ControllerRunResult:
    """Run-time outcome of executing an offline schedule on the controller.

    ``runtime`` holds the start times observed at run time, one flat
    schedule per processor listing its jobs in run order; ``offline`` the
    loaded ones.  They share one task table.  A device without an offline
    schedule makes :attr:`matches_offline` false, and its jobs have no
    start-time deviation.

    ``runtime_schedules`` and ``offline_schedules`` are the same schedules as
    :class:`~repro.core.schedule.Schedule` objects, built on first access.
    A result is built from either form: ``runtime`` and ``offline``, or
    ``runtime_schedules`` and ``offline_schedules``.  Once the objects
    exist, the scores are computed from them, so edits to them count.
    """

    def __init__(
        self,
        runtime_schedules: Optional[Dict[str, Schedule]] = None,
        offline_schedules: Optional[Dict[str, Schedule]] = None,
        executed_jobs: int = 0,
        skipped_jobs: int = 0,
        faults_detected: int = 0,
        events_processed: int = 0,
        exhausted: bool = False,
        trace_counts: Optional[Dict[str, int]] = None,
        *,
        runtime: Optional[Dict[str, FlatSchedule]] = None,
        offline: Optional[Dict[str, FlatSchedule]] = None,
    ):
        self._runtime, self._offline = runtime, offline
        self._runtime_schedules, self._offline_schedules = runtime_schedules, offline_schedules
        self.executed_jobs = executed_jobs
        self.skipped_jobs = skipped_jobs
        self.faults_detected = faults_detected
        #: Events the run processed: the controller's timer triggers, or the
        #: packets of a CPU-instigated run.
        self.events_processed = events_processed
        #: True when the ``max_events`` budget ran out with events left to process.
        self.exhausted = exhausted
        #: Trace events per kind, sorted by kind, kinds that never occurred left out.
        self.trace_counts = {} if trace_counts is None else trace_counts

    @property
    def runtime_schedules(self) -> Dict[str, Schedule]:
        if self._runtime_schedules is None:
            self._runtime_schedules = _objects(self._runtime)
        return self._runtime_schedules

    @runtime_schedules.setter
    def runtime_schedules(self, schedules: Dict[str, Schedule]) -> None:
        self._runtime_schedules = schedules

    @property
    def offline_schedules(self) -> Dict[str, Schedule]:
        if self._offline_schedules is None:
            self._offline_schedules = _objects(self._offline)
        return self._offline_schedules

    @offline_schedules.setter
    def offline_schedules(self, schedules: Dict[str, Schedule]) -> None:
        self._offline_schedules = schedules

    @property
    def runtime(self) -> Dict[str, FlatSchedule]:
        return self._flat()[0]

    @property
    def offline(self) -> Dict[str, FlatSchedule]:
        return self._flat()[1]

    def _flat(self) -> Tuple[Dict[str, FlatSchedule], Dict[str, FlatSchedule]]:
        """``(runtime, offline)``: the flat schedules, or, once the object
        views exist, the object views flattened over one task table."""
        if self._runtime_schedules is None and self._offline_schedules is None:
            return self._runtime, self._offline
        runtime, offline = self.runtime_schedules, self.offline_schedules
        tasks = task_table(chain(runtime.values(), offline.values()))
        return (
            {device: FlatSchedule.from_schedule(s, tasks) for device, s in runtime.items()},
            {device: FlatSchedule.from_schedule(s, tasks) for device, s in offline.items()},
        )

    @property
    def psi(self) -> float:
        """Run-time Psi (fraction of jobs started exactly at their ideal times)."""
        return flat_psi(self._flat()[0].values())

    @property
    def upsilon(self) -> float:
        """Run-time Upsilon of the executed jobs."""
        return flat_upsilon(self._flat()[0].values())

    @property
    def matches_offline(self) -> bool:
        """True iff every executed job started exactly at its offline start time."""
        runtime, offline = self._flat()
        for device, ran in runtime.items():
            loaded = offline.get(device)
            if loaded is None:
                return False
            held, starts = loaded.starts_of(ran)
            if not (held.all() and np.array_equal(starts, ran.start)):
                return False
        return True

    def start_time_deviations(self) -> List[int]:
        """Per-job |runtime start - offline start| for every executed job."""
        runtime, offline = self._flat()
        deviations: List[int] = []
        for device, ran in runtime.items():
            loaded = offline.get(device)
            if loaded is not None:
                held, starts = loaded.starts_of(ran)
                deviations += np.abs(ran.start - starts)[held].tolist()
        return deviations


def _objects(schedules: Dict[str, FlatSchedule]) -> Dict[str, Schedule]:
    return {device: schedule.to_schedule() for device, schedule in schedules.items()}


class IOController:
    """The dedicated I/O controller of the paper, at functional simulation level."""

    def __init__(
        self,
        memory_kb: int = 32,
        *,
        command_builder: CommandBuilder = default_command_builder,
        request_latency: int = 1,
        response_latency: int = 1,
        missing_request_policy: str = "skip",
        timer_resolution: int = 1,
        fault_injector: Optional[FaultInjector] = None,
        device_factory: Optional[Callable[[str], IODevice]] = None,
    ):
        self.memory = ControllerMemory(capacity_kb=memory_kb)
        self.command_builder = command_builder
        self.request_latency = request_latency
        self.response_latency = response_latency
        self.missing_request_policy = missing_request_policy
        self.timer_resolution = timer_resolution
        self.fault_injector = fault_injector or FaultInjector()
        self.device_factory = device_factory or (lambda name: GPIOPin(name))
        self.processors: Dict[str, ControllerProcessor] = {}
        self._tasks: Dict[str, IOTask] = {}

    # -- phase 1 ----------------------------------------------------------------

    def preload_taskset(self, task_set: TaskSet) -> None:
        """Store every task's command sequence in the controller memory."""
        for task in task_set:
            commands = list(self.command_builder(task))
            total = sum(command.duration for command in commands)
            if total != task.wcet:
                raise ValueError(
                    f"command sequence of task {task.name!r} lasts {total} but its "
                    f"WCET is {task.wcet}"
                )
            self.memory.store(task.name, commands)
            self._tasks[task.name] = task
            self._ensure_processor(task.device)

    def _ensure_processor(self, device_name: str) -> ControllerProcessor:
        if device_name not in self.processors:
            self.processors[device_name] = ControllerProcessor(
                device=self.device_factory(device_name),
                memory=self.memory,
                request_latency=self.request_latency,
                response_latency=self.response_latency,
                fault_injector=self.fault_injector,
                missing_request_policy=self.missing_request_policy,
                timer=GlobalTimer(resolution=self.timer_resolution),
            )
        return self.processors[device_name]

    # -- phase 2 ----------------------------------------------------------------

    def load_system_schedule(self, schedules: Dict[str, Schedule]) -> None:
        """Store the offline scheduling decisions into the per-device tables.

        The object API of :meth:`load_tables`: the schedules are flattened
        over one task table of the tasks their jobs belong to.
        """
        tasks = task_table(schedules.values())
        self.load_tables(
            {device: FlatSchedule.from_schedule(s, tasks) for device, s in schedules.items()}
        )

    def load_tables(self, schedules: Dict[str, FlatSchedule]) -> None:
        """Phase 2: make ``schedules`` the contents of every scheduling table.

        Each device's table receives its schedule's jobs in ``(start, task,
        index)`` order, sorted only when not listed so; a device without a
        schedule gets an empty table, so nothing an earlier load stored is
        left to fire.  The schedules share one task table.
        """
        self._task_table = shared_tasks(schedules.values(), TaskSet([]))
        self._offline: Dict[str, FlatSchedule] = dict(schedules)
        names = self._task_table.columns().names
        for device in schedules:
            self._ensure_processor(device)
        for device, processor in self.processors.items():
            schedule = schedules.get(device)
            if schedule is None:
                processor.table.replace([], [], [])
                continue
            ordered = schedule.table_order()
            processor.table.replace(
                [names[task] for task in ordered.task.tolist()],
                ordered.job.tolist(),
                ordered.start.tolist(),
            )

    # -- phase 3 ----------------------------------------------------------------

    def run(
        self,
        simulator: Optional[Simulator] = None,
        horizon: Optional[int] = None,
        *,
        auto_request: bool = True,
        request_jobs: Optional[Sequence[IOJob]] = None,
        max_events: Optional[int] = None,
    ) -> ControllerRunResult:
        """Execute the loaded schedule and measure the run-time timing accuracy.

        With ``auto_request`` (default) the application CPUs are modelled as
        sending one request per scheduled job through the request channel,
        so that it arrives at the job's release; ``request_jobs`` can restrict
        requests to a subset (jobs of un-requested tasks are then handled by
        the fault-recovery unit).  ``max_events`` bounds the simulation
        (forwarded to :meth:`Simulator.run`); a run cut short by it leaves
        ``simulator.exhausted`` set.  The result also carries the events this
        call processed and the simulator's trace counts.

        This is the object API of phase 3 and the oracle of
        :meth:`run_tables`, which the execution models call instead.
        """
        if not hasattr(self, "_offline"):
            raise RuntimeError("load_system_schedule() must be called before run()")
        simulator = simulator or Simulator()
        offline = {device: schedule.to_schedule() for device, schedule in self._offline.items()}

        if auto_request:
            requested = request_jobs
            if requested is None:
                requested = [
                    entry.job for schedule in offline.values() for entry in schedule.entries
                ]
            for job in requested:
                processor = self.processors[job.device]
                send_at = job.release - self.request_latency
                if send_at < 0:
                    # The request would have to be sent before the simulation
                    # starts; model it as already delivered (the application
                    # enabled the task during system start-up).
                    processor.table.enable(job.task.name)
                else:
                    processor.send_request(send_at, job.task.name)

        for processor in self.processors.values():
            processor.attach(simulator)

        if horizon is None:
            horizon = max((schedule.makespan for schedule in offline.values()), default=0)
        processed = simulator.run(until=horizon, max_events=max_events)

        result = self._collect_results()
        result.events_processed = processed
        result.exhausted = simulator.exhausted
        result.trace_counts = simulator.trace.counts_by_kind()
        return result

    def run_tables(self, max_events: Optional[int] = None) -> ControllerRunResult:
        """Phase 3 in one pass over each device's loaded scheduling table.

        Returns what ``run(Simulator(), max_events=max_events)`` returns on a
        freshly built controller, and leaves the processors as they are: no
        event, channel message, device operation or trace record is built.

        Every scheduled job's request joins the FIFO of its device in the
        order the loaded schedules list the jobs, and becomes available at
        the job's release; one that would be sent before time 0 enables its
        task at start-up.  A device drains its FIFO head first, and only when
        its table fires, so a request still in flight holds back the ones
        behind it.  Each due entry, in ``(start, task, index)`` order, is
        skipped as a fault if its commands are corrupted; a disabled task
        counts a fault and ``missing_request_policy`` decides; any other
        entry starts at its stored start.  The simulator's events are the
        distinct ``(device, start)`` pairs, ordered by start and then by
        device order; ``max_events`` fires a prefix of them, and an error is
        that of the first failing event in that order.
        """
        if not hasattr(self, "_offline"):
            raise RuntimeError("load_system_schedule() must be called before run()")
        enabled: Dict[str, set] = {device: set() for device in self.processors}
        # Per device, the release times and task names of its request FIFO.
        requests: Dict[str, Tuple[List[int], List[str]]] = {
            device: ([], []) for device in self.processors
        }
        for schedule in self._offline.values():
            self._queue_requests(schedule, enabled, requests)

        tables = [
            (device, processor.device, processor.table.columns())
            for device, processor in self.processors.items()
        ]
        for device, _, (_, _, starts) in tables:
            if starts and starts[0] < 0:
                raise ValueError(
                    f"the table of device {device!r} starts a job before time 0, "
                    f"at {starts[0]}"
                )
        # The simulator's events are the distinct (device, start) pairs,
        # ordered by start and then by device order, and ``max_events`` fires
        # a prefix of them: ``until`` holds the last start each device fires.
        triggers = [set(starts) for _, _, (_, _, starts) in tables]
        n_events = sum(map(len, triggers))
        processed = n_events if max_events is None else min(max_events, n_events)
        until = [starts[-1] if starts else -1 for _, _, (_, _, starts) in tables]
        if processed < n_events:
            events = sorted(
                (start, position) for position, group in enumerate(triggers) for start in group
            )
            last_start, last_position = events[processed - 1] if processed else (-1, 0)
            until = [
                last_start if position <= last_position else last_start - 1
                for position in range(len(tables))
            ]

        skip_disabled = self.missing_request_policy == "skip"
        corrupted: Dict[str, set] = {}  # task -> its corrupted job indexes; None: all
        position_of = self._task_table.name_index
        runtime: Dict[str, FlatSchedule] = {}
        failures = []
        executed = skipped = faults = 0
        for position, (device, io_device, (tasks, jobs, starts)) in enumerate(tables):
            bound, on, head = until[position], enabled[device], 0
            released, requested = requests[device]
            plans: Dict[str, tuple] = {}  # task -> (duration, first refused command)
            fired, free_at = -1, 0  # the trigger being handled; the device's end
            ran: Tuple[List[int], List[int], List[int]] = ([], [], [])
            failure: Optional[Exception] = None
            for task, index, start in zip(tasks, jobs, starts):
                if start > bound:
                    break
                if start != fired:
                    fired = start
                    while head < len(released) and released[head] <= start:
                        on.add(requested[head])
                        head += 1
                bad = corrupted.get(task)
                if bad is None:
                    bad = corrupted[task] = {
                        fault.job_index
                        for fault in self.fault_injector.faults_for(task)
                        if fault.kind == "corrupted-command"
                    }
                if bad and (None in bad or index in bad):
                    faults += 1
                    skipped += 1
                    continue
                if task not in on:
                    faults += 1
                    if skip_disabled:
                        skipped += 1
                        continue
                plan = plans.get(task)
                if plan is None:
                    try:
                        commands = self.memory.retrieve(task).commands
                    except KeyError as error:
                        failure = error
                        break
                    opcodes = io_device.supported_opcodes()
                    refused = [
                        (at, command.opcode)
                        for at, command in enumerate(commands)
                        if command.opcode not in opcodes
                    ]
                    plan = plans[task] = (
                        sum(command.duration for command in commands),
                        refused[0] if refused else None,
                    )
                duration, refused = plan
                # The device checks each command's opcode, and the first
                # command's start against the previous job's end.
                if start < free_at and (refused is None or refused[0] > 0):
                    failure = RuntimeError(
                        f"device {io_device.name!r} is busy until {free_at}, "
                        f"cannot start a command at {start}"
                    )
                    break
                if refused is not None:
                    failure = ValueError(
                        f"device {io_device.name!r} does not support opcode {refused[1]!r}"
                    )
                    break
                free_at = start + duration
                # The job starts at its table's start; a decision that no
                # loaded schedule made runs, but is not recorded.
                loaded = position_of.get(task)
                if loaded is not None:
                    ran[0].append(loaded)
                    ran[1].append(index)
                    ran[2].append(start)
                executed += 1
            if failure is not None:
                failures.append((fired, position, failure))
            runtime[device] = self._ran(device, *ran)
        if failures:
            # The oracle stops at the first failing event.
            raise min(failures, key=lambda item: item[:2])[2]

        return ControllerRunResult(
            runtime=runtime,
            offline=dict(self._offline),
            executed_jobs=executed,
            skipped_jobs=skipped,
            faults_detected=faults,
            events_processed=processed,
            exhausted=processed < n_events,
            trace_counts={
                kind: count
                for kind, count in (("job-skipped", skipped), ("job-start", executed))
                if count
            },
        )

    def _queue_requests(
        self,
        schedule: FlatSchedule,
        enabled: Dict[str, set],
        requests: Dict[str, Tuple[List[int], List[str]]],
    ) -> None:
        """Add each job of ``schedule``, in listed order, to its device's
        request FIFO, or enable its task at start-up when the request would
        be sent before time 0."""
        if not len(schedule):
            return
        columns = schedule.tasks.columns()
        task = schedule.task
        release = columns.offset[task] + columns.period[task] * schedule.job
        early = release < self.request_latency
        device_code = columns.device_code[task]
        for code in np.unique(device_code).tolist():
            device = columns.device_names[code]
            on = device_code == code
            enabled[device].update(columns.names[t] for t in task[on & early].tolist())
            late = on & ~early
            released, requested = requests[device]
            released += release[late].tolist()
            requested += [columns.names[t] for t in task[late].tolist()]

    # -- results --------------------------------------------------------------------

    def _ran(
        self, device: str, tasks: Iterable[int], jobs: Iterable[int], starts: Iterable[int]
    ) -> FlatSchedule:
        """The jobs a device ran, in run order, as a flat schedule over the
        loaded task table."""
        return FlatSchedule(
            self._task_table,
            np.array(tasks, dtype=np.int64),
            np.array(jobs, dtype=np.int64),
            np.array(starts, dtype=np.int64),
            device,
        )

    def _collect_results(self) -> ControllerRunResult:
        position_of = self._task_table.name_index
        runtime: Dict[str, FlatSchedule] = {}
        executed = 0
        skipped = 0
        faults = 0
        for device, processor in self.processors.items():
            ran: Tuple[List[int], List[int], List[int]] = ([], [], [])
            for record in processor.records:
                if record.executed:
                    loaded = position_of.get(record.entry.task_name)
                    if loaded is not None:
                        ran[0].append(loaded)
                        ran[1].append(record.entry.job_index)
                        ran[2].append(record.started_at)
                    executed += 1
                else:
                    skipped += 1
            runtime[device] = self._ran(device, *ran)
            faults += processor.fault_recovery.faults_detected
        return ControllerRunResult(
            runtime=runtime,
            offline=dict(self._offline),
            executed_jobs=executed,
            skipped_jobs=skipped,
            faults_detected=faults,
        )
