"""Execution models — *how* an offline schedule is executed at run time.

The paper's architectural argument (Sections I and IV) is exactly a choice of
execution model: a **dedicated I/O controller** triggers every job from the
global timer and reproduces the offline start times bit-exactly, while
**CPU-instigated I/O** sends each request across the NoC and pays per-hop
latency plus arbitration jitter.  This module makes that choice *data*: every
model registers a factory under a short name in :data:`EXECUTION_MODELS`, and
the run-time subsystem resolves ``"name:key=value,..."`` spec strings through
:class:`ExecutionModelSpec` without knowing any concrete class — a new
run-time architecture plugs into every simulation request, campaign and CLI
by registering itself.

Built-in models:

``dedicated-controller``
    The paper's architecture: the schedule is pre-loaded into the I/O
    controller and the synchroniser triggers every job from the global timer.
    The model loads the controller's tables and fires them in one pass
    (:meth:`~repro.hardware.controller.IOController.run_tables`);
    :meth:`~repro.hardware.controller.IOController.run`, the event-driven
    run of the same tables, is the oracle the tests hold the pass to.
``cpu-instigated``
    Each I/O request is injected by an application CPU at the job's offline
    start time, behind ``background_packets_per_job`` competing packets, so
    the operation starts only after delivery — exactness collapses.
``cpu-instigated-prioritized``
    As ``cpu-instigated``, but I/O requests win link arbitration against the
    background burst (the burst is injected behind the request instead of in
    front of it): jitter shrinks, yet the deterministic per-hop latency still
    shifts every start time.

Every model's :meth:`~ExecutionModel.execute` is pure in its arguments (the
only randomness flows through the explicit ``seed``), which is what lets
:mod:`repro.runtime.service` content-address simulation responses.

A CPU-instigated run is one call-order pass over an idle mesh: the model
builds the run's packet sequence and hands it to
:meth:`~repro.noc.network.NoCNetwork.transport`, which serves a run's
traffic without building packets or touching the platform's network.
:meth:`~repro.noc.network.NoCNetwork.send` serves configuration traffic and
is the hop-by-hop oracle the tests hold ``transport`` and these models to.

A model receives the offline schedules in one of two forms.
:func:`~repro.runtime.service.execute_simulation` calls
:meth:`~ExecutionModel.execute_flat` with
:class:`~repro.core.schedule.FlatSchedule` vectors decoded from the stored
schedule; :meth:`~ExecutionModel.execute` takes
:class:`~repro.core.schedule.Schedule` objects.  Each form's default
converts to the other, so a model implements either one.  The built-in
models implement :meth:`~ExecutionModel.execute_flat` and build no job,
schedule or table-entry object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.registry import Registry
from repro.core.schedule import FlatSchedule, Schedule, shared_tasks, task_table
from repro.core.task import TaskSet
from repro.hardware.controller import ControllerRunResult
from repro.scenario import Platform
from repro.service.spec import SchedulerSpec

#: Every execution model, by name and alias.
EXECUTION_MODELS = Registry("execution model")


class ExecutionOutcome(ControllerRunResult):
    """What one execution-model run produced (plain data + schedules).

    A :class:`~repro.hardware.controller.ControllerRunResult` plus the NoC
    latencies of CPU-instigated requests.  ``runtime`` holds the *actual*
    start times observed at run time; ``offline`` the start times the
    offline method computed (``runtime_schedules`` and ``offline_schedules``
    as objects).  The derived properties (`psi`, `upsilon`, `accuracy`,
    `matches_offline`) are the run-time counterparts of the offline metrics.
    """

    def __init__(
        self,
        *args: Any,
        mean_noc_latency: float = 0.0,
        max_noc_latency: int = 0,
        **fields: Any,
    ):
        super().__init__(*args, **fields)
        self.mean_noc_latency = mean_noc_latency
        self.max_noc_latency = max_noc_latency

    @property
    def offline_jobs(self) -> int:
        return sum(len(schedule) for schedule in self.offline.values())

    @property
    def accuracy(self) -> float:
        """Fraction of *offline* jobs executed exactly at their offline start.

        Jobs skipped at run time (fault recovery, horizon cut-offs) count
        against accuracy, so a model cannot look accurate by dropping work.
        """
        return self.accuracy_of(self.start_time_deviations())

    def accuracy_of(self, deviations: Sequence[int]) -> float:
        """:attr:`accuracy` from an already computed :meth:`start_time_deviations`."""
        total = self.offline_jobs
        if total == 0:
            return 1.0
        return sum(1 for deviation in deviations if deviation == 0) / total


class ExecutionModel:
    """Interface every execution model implements (duck-typed; this class
    documents the contract and converts between the two schedule forms).

    A model implements :meth:`execute_flat` or :meth:`execute`; the
    default of each calls the other with the schedules converted.
    """

    #: Registry name the model was created under (set by subclasses).
    name: str = ""

    def execute(
        self,
        task_set: TaskSet,
        schedules: Dict[str, Schedule],
        platform: Platform,
        *,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> ExecutionOutcome:
        """Run ``schedules`` (per device) on ``platform``: the object API.

        The default flattens the schedules over ``task_set`` (extended by
        any task the schedules name that it lacks) and calls
        :meth:`execute_flat`.
        """
        tasks = task_table(schedules.values(), task_set)
        return self.execute_flat(
            task_set,
            {device: FlatSchedule.from_schedule(s, tasks) for device, s in schedules.items()},
            platform,
            seed=seed,
            max_events=max_events,
        )

    def execute_flat(
        self,
        task_set: TaskSet,
        schedules: Dict[str, FlatSchedule],
        platform: Platform,
        *,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> ExecutionOutcome:
        """Run flat ``schedules`` (per device, one task table) on ``platform``.

        What :func:`~repro.runtime.service.execute_simulation` calls.  The
        default rebuilds :class:`~repro.core.schedule.Schedule` objects and
        calls :meth:`execute`.
        """
        if type(self).execute is ExecutionModel.execute:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither execute nor execute_flat"
            )
        return self.execute(
            task_set,
            {device: schedule.to_schedule() for device, schedule in schedules.items()},
            platform,
            seed=seed,
            max_events=max_events,
        )


# -- the registry ---------------------------------------------------------------

register_execution_model = EXECUTION_MODELS.register
unregister_execution_model = EXECUTION_MODELS.unregister
execution_model_registered = EXECUTION_MODELS.__contains__
available_execution_models = EXECUTION_MODELS.names


def list_execution_models() -> Dict[str, str]:
    """Name -> one-line description of every registered model (CLI listings)."""
    listing = {}
    for name in EXECUTION_MODELS.names():
        doc = (EXECUTION_MODELS.factory(name).__doc__ or "").strip().splitlines()
        listing[name] = doc[0] if doc else ""
    return listing


def format_execution_model_listing() -> str:
    """The ``--list-execution-models`` text the CLIs print, one model per line."""
    return "\n".join(
        f"{name:<28} {description}"
        for name, description in list_execution_models().items()
    )


def create_execution_model(name: str, **overrides: Any) -> ExecutionModel:
    """Instantiate the execution model registered under ``name`` with keyword
    ``overrides`` (see :meth:`~repro.core.registry.Registry.create`)."""
    return EXECUTION_MODELS.create(name, **overrides)


@dataclass(frozen=True)
class ExecutionModelSpec(SchedulerSpec):
    """An execution-model name plus typed options, in the spec-string grammar:
    a :class:`~repro.service.spec.SchedulerSpec` that resolves through
    :data:`EXECUTION_MODELS`."""

    REGISTRY = EXECUTION_MODELS


# -- built-in models ------------------------------------------------------------


@register_execution_model("dedicated-controller", aliases=("controller",))
class DedicatedControllerModel(ExecutionModel):
    """the paper's dedicated I/O controller: timer-triggered, bit-exact starts"""

    name = "dedicated-controller"

    def execute_flat(
        self,
        task_set: TaskSet,
        schedules: Dict[str, FlatSchedule],
        platform: Platform,
        *,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> ExecutionOutcome:
        controller = platform.controller
        controller.preload_taskset(task_set)
        controller.load_tables(schedules)
        # No run-time NoC traffic: triggering is local to the controller.
        run = controller.run_tables(max_events)
        return ExecutionOutcome(
            runtime=run.runtime,
            offline=run.offline,
            executed_jobs=run.executed_jobs,
            skipped_jobs=run.skipped_jobs,
            faults_detected=run.faults_detected,
            events_processed=run.events_processed,
            exhausted=run.exhausted,
            trace_counts=run.trace_counts,
        )


class _RemoteCPUBase(ExecutionModel):
    """Shared machinery of the CPU-instigated models.

    Each job's I/O request is injected from a per-task CPU tile; a burst of
    ``background_packets_per_job`` competing packets (platform spec) shares
    the mesh links around every request.  Subclasses decide whether the burst
    is injected *in front of* the request (plain CPU-instigated: the request
    queues behind it, start times jitter) or *behind* it (prioritized: the
    request wins arbitration, only the deterministic path latency remains).
    Every run starts on an idle mesh, so a platform can be reused.
    """

    #: Inject the background burst before the I/O request (plain model).
    background_first = True

    def __init__(
        self,
        *,
        request_size_flits: int = 4,
        background_size_flits: int = 8,
        jitter_window: int = 5,
    ):
        for label, value in (
            ("request_size_flits", request_size_flits),
            ("background_size_flits", background_size_flits),
        ):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{label} must be a positive integer, got {value!r}")
        if not isinstance(jitter_window, int) or isinstance(jitter_window, bool) or jitter_window < 1:
            raise ValueError(f"jitter_window must be a positive integer, got {jitter_window!r}")
        self.request_size_flits = request_size_flits
        self.background_size_flits = background_size_flits
        self.jitter_window = jitter_window

    def execute_flat(
        self,
        task_set: TaskSet,
        schedules: Dict[str, FlatSchedule],
        platform: Platform,
        *,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> ExecutionOutcome:
        background_per_job = platform.spec.background_packets_per_job
        cpu_tiles = platform.cpu_tiles()

        # Requests in injection (offline start) order, so link state evolves
        # chronologically: each device's jobs in (start, task, index) order,
        # the devices in the order given, then a stable sort by start.
        tasks = shared_tasks(schedules.values(), task_set)
        columns = tasks.columns()
        empty = np.zeros(0, dtype=np.int64)
        ordered = [schedule.table_order() for schedule in schedules.values()]
        task = np.concatenate([empty, *(schedule.task for schedule in ordered)])
        job = np.concatenate([empty, *(schedule.job for schedule in ordered)])
        start = np.concatenate([empty, *(schedule.start for schedule in ordered)])
        order = np.argsort(start, kind="stable")
        n_scheduled = len(order)

        # Every packet injection (request or background) is one simulation
        # event, so the ``max_events`` budget bounds the NoC work exactly as
        # it bounds the controller's event loop; jobs the budget cuts off
        # never execute and count as skipped.
        events_per_job = 1 + background_per_job
        if max_events is not None:
            order = order[: max(0, max_events // events_per_job)]
        task, job, start = task[order], job[order], start[order]
        n_jobs = len(order)

        # The run's randomness in one draw, in the order the jobs consume it:
        # a CPU tile per task, then a (tile, jitter) pair per background
        # packet.  NumPy draws an array of bounds exactly as it draws each
        # bound on its own: the same values, the same final generator state.
        n_tasks = len(task_set)
        bounds = [len(cpu_tiles)] * n_tasks
        bounds += [len(cpu_tiles), self.jitter_window] * (background_per_job * n_jobs)
        draws = np.random.default_rng(seed).integers(0, bounds).tolist()
        cpu_of_task = {t.name: cpu_tiles[tile] for t, tile in zip(task_set, draws)}

        # The run's packets in call order, ``events_per_job`` per job: the
        # job's request at offset ``request_slot`` and its burst, in draw
        # order, at the other offsets: in front of the request, each packet
        # injected up to a jitter early, or behind it, each up to a jitter late.
        starts = start.tolist()
        n_packets = events_per_job * n_jobs
        request_slot = background_per_job if self.background_first else 0
        burst_slots = [slot for slot in range(events_per_job) if slot != request_slot]
        sources = [None] * n_packets
        times = [0] * n_packets
        sizes = [self.background_size_flits] * n_packets
        sources[request_slot::events_per_job] = [
            cpu_of_task[columns.names[t]] for t in task.tolist()
        ]
        times[request_slot::events_per_job] = starts
        sizes[request_slot::events_per_job] = [self.request_size_flits] * n_jobs
        stride = 2 * background_per_job
        for i, slot in enumerate(burst_slots):
            tiles = draws[n_tasks + 2 * i :: stride]
            jitters = draws[n_tasks + 2 * i + 1 :: stride]
            sources[slot::events_per_job] = [cpu_tiles[tile] for tile in tiles]
            times[slot::events_per_job] = (
                [max(0, start - jitter) for start, jitter in zip(starts, jitters)]
                if self.background_first
                else [start + jitter for start, jitter in zip(starts, jitters)]
            )
        delivered = platform.network.transport(sources, platform.io_tile, times, sizes)
        arrival = np.array(delivered[request_slot::events_per_job], dtype=np.int64)

        # A device starts each request on arrival, or when its previous job
        # ends: s_k = max(a_k, s_(k-1) + C_(k-1)) over the device's jobs in
        # run order, which is W_k + max(0, max over i <= k of a_i - W_i) with
        # W_k the WCETs of the device's jobs before job k.
        runtime = {device: FlatSchedule(tasks, empty, empty, empty, device) for device in schedules}
        device_code = columns.device_code[task]
        for code in np.unique(device_code).tolist():
            device = columns.device_names[code]
            if device not in runtime:
                raise KeyError(device)
            rows = np.flatnonzero(device_code == code)
            wcet = columns.wcet[task[rows]]
            busy = np.cumsum(wcet) - wcet
            ran = busy + np.maximum(np.maximum.accumulate(arrival[rows] - busy), 0)
            runtime[device] = FlatSchedule(tasks, task[rows], job[rows], ran, device)
        latencies = arrival - start

        return ExecutionOutcome(
            runtime=runtime,
            offline=dict(schedules),
            executed_jobs=n_jobs,
            skipped_jobs=n_scheduled - n_jobs,
            faults_detected=0,
            mean_noc_latency=int(latencies.sum()) / n_jobs if n_jobs else 0.0,
            max_noc_latency=int(latencies.max()) if n_jobs else 0,
            events_processed=n_packets,
            exhausted=n_jobs < n_scheduled,
            trace_counts={"packet-delivered": n_packets},
        )


@register_execution_model("cpu-instigated", aliases=("remote-cpu",))
class CPUInstigatedModel(_RemoteCPUBase):
    """CPU-instigated I/O over the NoC: per-hop latency + arbitration jitter"""

    name = "cpu-instigated"
    background_first = True


@register_execution_model("cpu-instigated-prioritized")
class CPUInstigatedPrioritizedModel(_RemoteCPUBase):
    """CPU-instigated I/O with prioritized requests: jitter-free, latency remains"""

    name = "cpu-instigated-prioritized"
    background_first = False


#: The built-in model names, in documentation order.
BUILTIN_EXECUTION_MODELS: Tuple[str, ...] = (
    "dedicated-controller",
    "cpu-instigated",
    "cpu-instigated-prioritized",
)
