"""Timed I/O tasks, jobs and task sets (Section II of the paper).

Each timed I/O task is a 6-tuple ``{C_i, T_i, D_i, P_i, delta_i, theta_i}``:

* ``C_i`` — worst-case computation time of the I/O operation on its device,
* ``T_i`` — period,
* ``D_i`` — deadline (implicit, ``D_i = T_i`` in the paper),
* ``P_i`` — deadline-monotonic priority (a *larger* number means a *higher*
  priority; the paper writes "``D_1 > D_2`` so that ``P_1 < P_2``"),
* ``delta_i`` — ideal start time of the I/O operation relative to each release,
* ``theta_i`` — half-width of the timing boundary around the ideal start.

During execution each task releases a set of jobs over one hyper-period.  Job
``j`` of task ``i`` has ideal start time ``T_i * j + delta_i`` and must be
executed non-preemptively inside its release window
``[T_i * j, T_i * j + D_i]``.

All times are integer microseconds.  The :data:`MS` constant converts from the
paper's milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hyperperiod import hyperperiod as _hyperperiod
from repro.core.quality import LinearQualityCurve, QualityCurve

#: Microseconds per millisecond — the internal time unit is the microsecond.
MS: int = 1000
#: One microsecond (the base unit), for symmetry with :data:`MS`.
US: int = 1


@dataclass(frozen=True)
class IOTask:
    """A periodic timed I/O task (``tau_i`` in the paper).

    Parameters
    ----------
    name:
        Unique identifier of the task within a :class:`TaskSet`.
    wcet:
        Worst-case computation time ``C_i`` in microseconds (> 0).
    period:
        Period ``T_i`` in microseconds (> 0).
    deadline:
        Relative deadline ``D_i`` in microseconds.  Defaults to the period
        (implicit deadlines, as in the paper).
    priority:
        Deadline-monotonic priority ``P_i``.  Larger values denote higher
        priority.  ``TaskSet.assign_dmpo_priorities`` assigns these
        automatically.
    ideal_offset:
        Relative ideal start time ``delta_i`` in microseconds,
        ``0 <= delta_i <= D_i``.
    theta:
        Timing-boundary half width ``theta_i`` in microseconds.  The paper
        enforces ``theta_i >= C_i``.
    device:
        Identifier of the I/O device this task operates on.  The scheduling
        model is fully partitioned per device.
    v_max / v_min:
        Maximum / minimum quality of the task's quality curve.  The paper's
        experiments use ``v_max = P_i + 1`` and a global ``v_min = 1``.
    offset:
        Release offset of the first job (microseconds).  The paper's main
        experiments use synchronous release (offset 0) but Section III-C notes
        the methods also apply with offsets.
    """

    name: str
    wcet: int
    period: int
    deadline: Optional[int] = None
    priority: int = 0
    ideal_offset: int = 0
    theta: int = 0
    device: str = "dev0"
    v_max: float = 2.0
    v_min: float = 1.0
    offset: int = 0

    def __post_init__(self) -> None:
        deadline = self.period if self.deadline is None else self.deadline
        object.__setattr__(self, "deadline", int(deadline))
        object.__setattr__(self, "wcet", int(self.wcet))
        object.__setattr__(self, "period", int(self.period))
        object.__setattr__(self, "ideal_offset", int(self.ideal_offset))
        object.__setattr__(self, "theta", int(self.theta))
        object.__setattr__(self, "offset", int(self.offset))
        if self.wcet <= 0:
            raise ValueError(f"task {self.name}: wcet must be positive, got {self.wcet}")
        if self.period <= 0:
            raise ValueError(f"task {self.name}: period must be positive, got {self.period}")
        if self.deadline <= 0 or self.deadline > self.period:
            raise ValueError(
                f"task {self.name}: deadline must be in (0, period], got {self.deadline}"
            )
        if self.wcet > self.deadline:
            raise ValueError(
                f"task {self.name}: wcet {self.wcet} exceeds deadline {self.deadline}"
            )
        if not 0 <= self.ideal_offset <= self.deadline:
            raise ValueError(
                f"task {self.name}: ideal_offset must be in [0, deadline], "
                f"got {self.ideal_offset}"
            )
        if self.theta < 0:
            raise ValueError(f"task {self.name}: theta must be non-negative")
        if self.offset < 0:
            raise ValueError(f"task {self.name}: offset must be non-negative")
        if self.v_max < self.v_min:
            raise ValueError(
                f"task {self.name}: v_max ({self.v_max}) must be >= v_min ({self.v_min})"
            )

    def __hash__(self) -> int:
        """Same value as the dataclass-generated hash, computed once.

        Tasks are hashed heavily as parts of memo keys (inside job tuples);
        the field tuple never changes, so neither does the hash.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (
                    self.name,
                    self.wcet,
                    self.period,
                    self.deadline,
                    self.priority,
                    self.ideal_offset,
                    self.theta,
                    self.device,
                    self.v_max,
                    self.v_min,
                    self.offset,
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        """Slim pickles: drop memoised derivatives (hash, quality curve)."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_quality_curve", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    @property
    def utilisation(self) -> float:
        """Processor (device) utilisation ``C_i / T_i`` of the task."""
        return self.wcet / self.period

    @property
    def quality_curve(self) -> QualityCurve:
        """The task's quality curve (linear, per the paper's evaluation).

        A pure value of ``(v_max, v_min)``, so it is built once per task and
        cached — metric aggregation queries it for every job.
        """
        curve = self.__dict__.get("_quality_curve")
        if curve is None:
            curve = LinearQualityCurve(v_max=self.v_max, v_min=self.v_min)
            object.__setattr__(self, "_quality_curve", curve)
        return curve

    def with_priority(self, priority: int) -> "IOTask":
        """Return a copy of the task with a different priority."""
        return replace(self, priority=priority)

    def job(self, index: int) -> "IOJob":
        """Construct job ``lambda_i^index`` of this task."""
        if index < 0:
            raise ValueError("job index must be non-negative")
        release = self.offset + self.period * index
        return IOJob(task=self, index=index, release=release)

    def jobs(self, horizon: int) -> List["IOJob"]:
        """All jobs released strictly before ``horizon`` (e.g. one hyper-period)."""
        jobs: List[IOJob] = []
        index = 0
        while self.offset + self.period * index < horizon:
            jobs.append(self.job(index))
            index += 1
        return jobs


@dataclass(frozen=True)
class IOJob:
    """A single release (``lambda_i^j``) of a timed I/O task."""

    task: IOTask
    index: int
    release: int

    @property
    def name(self) -> str:
        """Human-readable job identifier, e.g. ``"tau3[2]"``."""
        return f"{self.task.name}[{self.index}]"

    @property
    def key(self) -> Tuple[str, int]:
        """Hashable identity of the job: ``(task name, job index)``."""
        return (self.task.name, self.index)

    @property
    def wcet(self) -> int:
        return self.task.wcet

    @property
    def priority(self) -> int:
        return self.task.priority

    @property
    def deadline(self) -> int:
        """Absolute deadline of the job."""
        return self.release + self.task.deadline

    @property
    def ideal_start(self) -> int:
        """Absolute ideal start time ``T_i * j + delta_i`` (plus release offset)."""
        return self.release + self.task.ideal_offset

    @property
    def latest_start(self) -> int:
        """Latest start time that still meets the deadline (non-preemptive)."""
        return self.deadline - self.task.wcet

    @property
    def window(self) -> Tuple[int, int]:
        """Timing boundary ``[ideal - theta, ideal + theta]`` clamped to the release window."""
        lo = max(self.release, self.ideal_start - self.task.theta)
        hi = min(self.latest_start, self.ideal_start + self.task.theta)
        return (lo, hi)

    @property
    def device(self) -> str:
        return self.task.device

    def quality(self, start_time: int) -> float:
        """Quality obtained if the job starts executing at ``start_time``."""
        return self.task.quality_curve.value(
            start_time, self.ideal_start, self.task.theta
        )

    def max_quality(self) -> float:
        """Quality obtained at the ideal start time (``V_max``)."""
        return self.quality(self.ideal_start)

    def __lt__(self, other: "IOJob") -> bool:
        return (self.ideal_start, self.key) < (other.ideal_start, other.key)

    def __hash__(self) -> int:
        """Same value as the dataclass-generated hash, computed once."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.task, self.index, self.release))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        """Slim pickles: drop the memoised hash."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class TaskColumns:
    """The attributes of a task set's tasks, one entry per task position.

    Flat schedules (:class:`~repro.core.schedule.FlatSchedule`) name a job
    by its task's position and read every per-task value from here.
    ``name_rank`` orders the tasks by name, and ``device_code`` indexes
    ``device_names``, the distinct devices in first-use order.
    """

    names: List[str]
    device_names: List[str]
    device_code: np.ndarray
    name_rank: np.ndarray
    offset: np.ndarray
    period: np.ndarray
    deadline: np.ndarray
    priority: np.ndarray
    ideal_offset: np.ndarray
    theta: np.ndarray
    wcet: np.ndarray
    v_max: np.ndarray
    v_min: np.ndarray

    @classmethod
    def of(cls, tasks: Sequence[IOTask]) -> "TaskColumns":
        names = [task.name for task in tasks]
        devices = [task.device for task in tasks]
        device_names = list(dict.fromkeys(devices))
        code = {device: position for position, device in enumerate(device_names)}
        name_rank = np.empty(len(tasks), dtype=np.int64)
        name_rank[sorted(range(len(tasks)), key=names.__getitem__)] = np.arange(len(tasks))

        def column(attribute: str, dtype=np.int64) -> np.ndarray:
            return np.array([getattr(task, attribute) for task in tasks], dtype=dtype)

        return cls(
            names=names,
            device_names=device_names,
            device_code=np.array([code[device] for device in devices], dtype=np.int64),
            name_rank=name_rank,
            offset=column("offset"),
            period=column("period"),
            deadline=column("deadline"),
            priority=column("priority", None),
            ideal_offset=column("ideal_offset"),
            theta=column("theta"),
            wcet=column("wcet"),
            v_max=column("v_max", np.float64),
            v_min=column("v_min", np.float64),
        )


class TaskSet:
    """An ordered collection of timed I/O tasks (``Gamma`` in the paper)."""

    def __init__(self, tasks: Iterable[IOTask]):
        self._tasks: List[IOTask] = list(tasks)
        names = [task.name for task in self._tasks]
        if len(names) != len(set(names)):
            raise ValueError("task names within a TaskSet must be unique")
        # The task list never changes after construction, so the name index,
        # the per-device partitions, the released-jobs lists and the task
        # columns (pure functions of the tasks) are computed once, on first
        # use, and shared by every consumer of this instance.
        self._index: Optional[Dict[str, int]] = None
        self._partition_cache: Optional[Dict[str, "TaskSet"]] = None
        self._jobs_cache: Dict[int, List[IOJob]] = {}
        self._columns: Optional[TaskColumns] = None

    def __getstate__(self) -> Dict[str, object]:
        """Slim pickles: derived caches are recomputed by receivers."""
        state = dict(self.__dict__)
        for cache in ("_index", "_partition_cache", "_jobs_cache", "_columns"):
            state.pop(cache, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._index = None
        self._partition_cache = None
        self._jobs_cache = {}
        self._columns = None

    def __iter__(self) -> Iterator[IOTask]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, item: int) -> IOTask:
        return self._tasks[item]

    def __repr__(self) -> str:
        return f"TaskSet({len(self._tasks)} tasks, U={self.utilisation:.3f})"

    @property
    def tasks(self) -> List[IOTask]:
        return list(self._tasks)

    @property
    def utilisation(self) -> float:
        """Total utilisation ``sum C_i / T_i`` across all tasks."""
        return sum(task.utilisation for task in self._tasks)

    @property
    def devices(self) -> List[str]:
        """Sorted list of distinct I/O devices referenced by the tasks."""
        return sorted({task.device for task in self._tasks})

    @property
    def name_index(self) -> Dict[str, int]:
        """Task name -> position, built on first use (do not modify)."""
        if self._index is None:
            self._index = {task.name: position for position, task in enumerate(self._tasks)}
        return self._index

    def by_name(self, name: str) -> IOTask:
        try:
            return self._tasks[self.name_index[name]]
        except (KeyError, TypeError):
            raise KeyError(f"no task named {name!r}") from None

    def columns(self) -> TaskColumns:
        """The per-task columns, built on first use."""
        if self._columns is None:
            self._columns = TaskColumns.of(self._tasks)
        return self._columns

    def hyperperiod(self) -> int:
        """Hyper-period (LCM of all task periods)."""
        if not self._tasks:
            raise ValueError("hyperperiod of an empty task set is undefined")
        return _hyperperiod([task.period for task in self._tasks])

    def jobs(self, horizon: Optional[int] = None) -> List[IOJob]:
        """All jobs released by all tasks within ``horizon`` (default: one hyper-period)."""
        if horizon is None:
            horizon = self.hyperperiod()
        cached = self._jobs_cache.get(horizon)
        if cached is None:
            jobs: List[IOJob] = []
            for task in self._tasks:
                jobs.extend(task.jobs(horizon))
            # Same order as sorting with IOJob.__lt__, but the sort key is
            # built once per job instead of twice per comparison.
            jobs.sort(key=lambda j: (j.ideal_start, j.key))
            self._jobs_cache[horizon] = cached = jobs
        return list(cached)

    def assign_dmpo_priorities(self) -> "TaskSet":
        """Return a new task set with deadline-monotonic priorities assigned.

        The task with the *shortest* deadline receives the *highest* priority
        (largest number), matching the paper's convention that
        ``D_1 > D_2  =>  P_1 < P_2``.  Ties are broken by task name for
        determinism.
        """
        ordered = sorted(self._tasks, key=lambda t: (-t.deadline, t.name))
        reprioritised = [
            task.with_priority(rank + 1) for rank, task in enumerate(ordered)
        ]
        by_name: Dict[str, IOTask] = {task.name: task for task in reprioritised}
        return TaskSet([by_name[task.name] for task in self._tasks])

    def partition(self) -> Dict[str, "TaskSet"]:
        """Split the task set into per-device partitions (fully-partitioned model)."""
        if self._partition_cache is None:
            groups: Dict[str, List[IOTask]] = {}
            for task in self._tasks:
                groups.setdefault(task.device, []).append(task)
            self._partition_cache = {
                device: TaskSet(tasks) for device, tasks in sorted(groups.items())
            }
        return dict(self._partition_cache)

    def scaled(self, factor: float) -> "TaskSet":
        """Return a copy with all WCETs scaled by ``factor`` (utilisation scaling)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        scaled_tasks = []
        for task in self._tasks:
            new_wcet = max(1, int(round(task.wcet * factor)))
            scaled_tasks.append(replace(task, wcet=new_wcet))
        return TaskSet(scaled_tasks)


def make_task_ms(
    name: str,
    wcet_ms: float,
    period_ms: float,
    *,
    deadline_ms: Optional[float] = None,
    ideal_offset_ms: float = 0.0,
    theta_ms: float = 0.0,
    priority: int = 0,
    device: str = "dev0",
    v_max: float = 2.0,
    v_min: float = 1.0,
    offset_ms: float = 0.0,
) -> IOTask:
    """Convenience constructor taking milliseconds (the paper's unit) as floats."""
    return IOTask(
        name=name,
        wcet=int(round(wcet_ms * MS)),
        period=int(round(period_ms * MS)),
        deadline=None if deadline_ms is None else int(round(deadline_ms * MS)),
        priority=priority,
        ideal_offset=int(round(ideal_offset_ms * MS)),
        theta=int(round(theta_ms * MS)),
        device=device,
        v_max=v_max,
        v_min=v_min,
        offset=int(round(offset_ms * MS)),
    )
