"""The complete I/O controller: controller memory + one processor per device.

The controller realises the three phases of Section IV:

1. **Pre-loading** — :meth:`IOController.preload_taskset` groups the I/O
   commands of every timed I/O task and stores them in the controller memory;
2. **Offline scheduling** — :meth:`IOController.load_system_schedule` stores
   the start times produced by any of the offline schedulers into the
   per-device scheduling tables;
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
the achieved Psi/Upsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import aggregate_psi, aggregate_upsilon
from repro.core.schedule import Schedule, ScheduleEntry, SystemSchedule
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


@dataclass
class ControllerRunResult:
    """Run-time outcome of executing an offline schedule on the controller.

    ``runtime_schedules`` hold the start times observed at run time, one
    schedule per processor; ``offline_schedules`` the loaded ones.  A device
    without an offline schedule makes :attr:`matches_offline` false, and its
    jobs have no start-time deviation.
    """

    runtime_schedules: Dict[str, Schedule]
    offline_schedules: Dict[str, Schedule]
    executed_jobs: int
    skipped_jobs: int
    faults_detected: int
    #: Events the run processed: the controller's timer triggers, or the
    #: packets of a CPU-instigated run.
    events_processed: int = 0
    #: True when the ``max_events`` budget ran out with events left to process.
    exhausted: bool = False
    #: Trace events per kind, sorted by kind, kinds that never occurred left out.
    trace_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def psi(self) -> float:
        """Run-time Psi (fraction of jobs started exactly at their ideal times)."""
        return aggregate_psi(self.runtime_schedules.values())

    @property
    def upsilon(self) -> float:
        """Run-time Upsilon of the executed jobs."""
        return aggregate_upsilon(self.runtime_schedules.values())

    @property
    def matches_offline(self) -> bool:
        """True iff every executed job started exactly at its offline start time."""
        for device, runtime in self.runtime_schedules.items():
            offline = self.offline_schedules.get(device)
            if offline is None:
                return False
            for entry in runtime.entries:
                if entry.job not in offline or offline.start_of(entry.job) != entry.start:
                    return False
        return True

    def start_time_deviations(self) -> List[int]:
        """Per-job |runtime start - offline start| for every executed job."""
        deviations: List[int] = []
        for device, runtime in self.runtime_schedules.items():
            offline = self.offline_schedules.get(device)
            if offline is None:
                continue
            for entry in runtime.entries:
                if entry.job in offline:
                    deviations.append(abs(entry.start - offline.start_of(entry.job)))
        return deviations


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
        #: Job key -> the offline entry of that job loaded last.
        self._loaded: Dict[tuple, ScheduleEntry] = {}

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
        """Store the offline scheduling decisions into the per-device tables."""
        self._offline: Dict[str, Schedule] = {}
        for device, schedule in schedules.items():
            processor = self._ensure_processor(device)
            processor.load_schedule(schedule)
            self._offline[device] = schedule.copy()
            for entry in schedule.entries:
                self._loaded[entry.job.key] = entry

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

        if auto_request:
            requested = request_jobs
            if requested is None:
                requested = [
                    entry.job
                    for schedule in self._offline.values()
                    for entry in schedule.entries
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
            horizon = max(
                (schedule.makespan for schedule in self._offline.values()), default=0
            )
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
        requests: Dict[str, List[Tuple[int, str]]] = {device: [] for device in self.processors}
        for schedule in self._offline.values():
            for entry in schedule.entries:
                job = entry.job
                if job.release < self.request_latency:
                    enabled[job.device].add(job.task.name)
                else:
                    requests[job.device].append((job.release, job.task.name))

        tables = [
            (device, processor.device, processor.table.entries())
            for device, processor in self.processors.items()
        ]
        for device, _, entries in tables:
            if entries and entries[0].start_time < 0:
                raise ValueError(
                    f"the table of device {device!r} starts a job before time 0, "
                    f"at {entries[0].start_time}"
                )
        # The simulator's events are the distinct (device, start) pairs,
        # ordered by start and then by device order, and ``max_events`` fires
        # a prefix of them: ``until`` holds the last start each device fires.
        starts = [{entry.start_time for entry in entries} for _, _, entries in tables]
        n_events = sum(map(len, starts))
        processed = n_events if max_events is None else min(max_events, n_events)
        until = [entries[-1].start_time if entries else -1 for _, _, entries in tables]
        if processed < n_events:
            events = sorted(
                (start, position) for position, group in enumerate(starts) for start in group
            )
            last_start, last_position = events[processed - 1] if processed else (-1, 0)
            until = [
                last_start if position <= last_position else last_start - 1
                for position in range(len(tables))
            ]

        skip_disabled = self.missing_request_policy == "skip"
        corrupted: Dict[str, set] = {}  # task -> its corrupted job indexes; None: all
        runtime: Dict[str, Schedule] = {}
        failures = []
        executed = skipped = faults = 0
        for position, (device, io_device, entries) in enumerate(tables):
            bound, fifo, on, head = until[position], requests[device], enabled[device], 0
            plans: Dict[str, tuple] = {}  # task -> (duration, first refused command)
            fired, free_at = -1, 0  # the trigger being handled; the device's end
            ran: List[ScheduleEntry] = []
            failure: Optional[Exception] = None
            for entry in entries:
                start = entry.start_time
                if start > bound:
                    break
                if start != fired:
                    fired = start
                    while head < len(fifo) and fifo[head][0] <= start:
                        on.add(fifo[head][1])
                        head += 1
                task, index = entry.task_name, entry.job_index
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
                # The job starts at its table's start: the loaded entry, unless
                # another table holds that job at another start.
                loaded = self._loaded.get((task, index))
                if loaded is not None:
                    if loaded.start != start:
                        loaded = ScheduleEntry(job=loaded.job, start=start)
                    ran.append(loaded)
                executed += 1
            if failure is not None:
                failures.append((fired, position, failure))
            runtime[device] = Schedule(ran, device=device)
        if failures:
            # The oracle stops at the first failing event.
            raise min(failures, key=lambda item: item[:2])[2]

        return ControllerRunResult(
            runtime_schedules=runtime,
            offline_schedules=dict(self._offline),
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

    # -- results --------------------------------------------------------------------

    def _collect_results(self) -> ControllerRunResult:
        runtime: Dict[str, Schedule] = {}
        executed = 0
        skipped = 0
        faults = 0
        for device, processor in self.processors.items():
            schedule = Schedule(device=device)
            for record in processor.records:
                if record.executed:
                    loaded = self._loaded.get(record.entry.key)
                    if loaded is not None:
                        schedule.add(ScheduleEntry(job=loaded.job, start=record.started_at))
                    executed += 1
                else:
                    skipped += 1
            runtime[device] = schedule
            faults += processor.fault_recovery.faults_detected
        return ControllerRunResult(
            runtime_schedules=runtime,
            offline_schedules=dict(self._offline),
            executed_jobs=executed,
            skipped_jobs=skipped,
            faults_detected=faults,
        )
