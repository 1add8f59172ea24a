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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.registry import Registry
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.task import TaskSet
from repro.hardware.controller import ControllerRunResult
from repro.scenario import Platform
from repro.service.spec import SchedulerSpec

#: Every execution model, by name and alias.
EXECUTION_MODELS = Registry("execution model")


@dataclass
class ExecutionOutcome(ControllerRunResult):
    """What one execution-model run produced (plain data + schedules).

    A :class:`~repro.hardware.controller.ControllerRunResult` plus the NoC
    latencies of CPU-instigated requests.  ``runtime_schedules`` hold the
    *actual* start times observed at run time; ``offline_schedules`` the
    start times the offline method computed.  The derived properties
    (`psi`, `upsilon`, `accuracy`, `matches_offline`) are the run-time
    counterparts of the offline metrics.
    """

    mean_noc_latency: float = 0.0
    max_noc_latency: int = 0

    @property
    def offline_jobs(self) -> int:
        return sum(len(schedule.entries) for schedule in self.offline_schedules.values())

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
    documents the contract and provides the shared NoC statistics helper)."""

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
        raise NotImplementedError


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

    def execute(
        self,
        task_set: TaskSet,
        schedules: Dict[str, Schedule],
        platform: Platform,
        *,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> ExecutionOutcome:
        controller = platform.controller
        controller.preload_taskset(task_set)
        controller.load_system_schedule(schedules)
        # No run-time NoC traffic: triggering is local to the controller.
        return ExecutionOutcome(**vars(controller.run_tables(max_events)))


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

    def execute(
        self,
        task_set: TaskSet,
        schedules: Dict[str, Schedule],
        platform: Platform,
        *,
        seed: int = 0,
        max_events: Optional[int] = None,
    ) -> ExecutionOutcome:
        background_per_job = platform.spec.background_packets_per_job
        cpu_tiles = platform.cpu_tiles()

        # Requests sorted by injection (offline start) time, so link state
        # evolves chronologically.
        all_entries: List[ScheduleEntry] = [
            entry for schedule in schedules.values() for entry in schedule.sorted_entries()
        ]
        all_entries.sort(key=lambda e: e.start)

        # Every packet injection (request or background) is one simulation
        # event, so the ``max_events`` budget bounds the NoC work exactly as
        # it bounds the controller's event loop; jobs the budget cuts off
        # never execute and count as skipped.
        events_per_job = 1 + background_per_job
        jobs = all_entries
        if max_events is not None:
            jobs = all_entries[: max(0, max_events // events_per_job)]

        # The run's randomness in one draw, in the order the jobs consume it:
        # a CPU tile per task, then a (tile, jitter) pair per background
        # packet.  NumPy draws an array of bounds exactly as it draws each
        # bound on its own: the same values, the same final generator state.
        tasks = list(task_set)
        bounds = [len(cpu_tiles)] * len(tasks)
        bounds += [len(cpu_tiles), self.jitter_window] * (background_per_job * len(jobs))
        draws = np.random.default_rng(seed).integers(0, bounds).tolist()
        cpu_of_task = {task.name: cpu_tiles[tile] for task, tile in zip(tasks, draws)}

        # The run's packets in call order, ``events_per_job`` per job: the
        # job's request at offset ``request_slot`` and its burst, in draw
        # order, at the other offsets: in front of the request, each packet
        # injected up to a jitter early, or behind it, each up to a jitter late.
        starts = [entry.start for entry in jobs]
        n_packets = events_per_job * len(jobs)
        request_slot = background_per_job if self.background_first else 0
        burst_slots = [slot for slot in range(events_per_job) if slot != request_slot]
        sources = [None] * n_packets
        times = [0] * n_packets
        sizes = [self.background_size_flits] * n_packets
        sources[request_slot::events_per_job] = [
            cpu_of_task[entry.job.task.name] for entry in jobs
        ]
        times[request_slot::events_per_job] = starts
        sizes[request_slot::events_per_job] = [self.request_size_flits] * len(jobs)
        stride = 2 * background_per_job
        for i, slot in enumerate(burst_slots):
            tiles = draws[len(tasks) + 2 * i :: stride]
            jitters = draws[len(tasks) + 2 * i + 1 :: stride]
            sources[slot::events_per_job] = [cpu_tiles[tile] for tile in tiles]
            times[slot::events_per_job] = (
                [max(0, start - jitter) for start, jitter in zip(starts, jitters)]
                if self.background_first
                else [start + jitter for start, jitter in zip(starts, jitters)]
            )
        delivered = platform.network.transport(sources, platform.io_tile, times, sizes)

        runtime: Dict[str, Schedule] = {
            device: Schedule(device=device) for device in schedules
        }
        device_free_at: Dict[str, int] = {device: 0 for device in schedules}
        request_delivered = delivered[request_slot::events_per_job]
        for entry, arrival in zip(jobs, request_delivered):
            device = entry.job.device
            start = max(arrival, device_free_at[device])
            runtime[device].add(ScheduleEntry(job=entry.job, start=start))
            device_free_at[device] = start + entry.job.wcet
        latencies = [arrival - start for arrival, start in zip(request_delivered, starts)]

        return ExecutionOutcome(
            runtime_schedules=runtime,
            offline_schedules={device: schedule.copy() for device, schedule in schedules.items()},
            executed_jobs=len(jobs),
            skipped_jobs=len(all_entries) - len(jobs),
            faults_detected=0,
            mean_noc_latency=sum(latencies) / len(latencies) if latencies else 0.0,
            max_noc_latency=max(latencies, default=0),
            events_processed=n_packets,
            exhausted=len(jobs) < len(all_entries),
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
