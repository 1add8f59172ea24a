"""Scheduler interface and result types shared by all scheduling methods."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.metrics import ScheduleMetrics, flat_psi, flat_upsilon, schedule_metrics
from repro.core.schedule import FlatSchedule, Schedule, SystemSchedule, flatten
from repro.core.task import IOJob, TaskSet


@dataclass
class ScheduleResult:
    """Outcome of scheduling the jobs of a single per-device partition.

    The schedule is held as start vectors, ``flat``, listing the jobs in the
    order the scheduler placed them (``None`` when it found none).  The
    object views are built when first read: :attr:`schedule`, and, for a
    result with best points (the GA's), ``info["best_psi_schedule"]`` and
    ``info["best_upsilon_schedule"]``.
    """

    schedulable: bool
    flat: Optional[FlatSchedule]
    metrics: ScheduleMetrics
    #: Scheduler-specific diagnostics (e.g. number of sacrificed jobs, GA
    #: generations executed, Pareto-front size).
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    #: The best-Psi and best-Upsilon schedules of a search's Pareto front.
    best: Optional[Tuple[FlatSchedule, FlatSchedule]] = None
    _schedule: Optional[Schedule] = field(default=None, repr=False, compare=False)

    @classmethod
    def infeasible(cls, n_jobs: int = 0, **info: Any) -> "ScheduleResult":
        return cls(False, None, ScheduleMetrics.infeasible(n_jobs=n_jobs), dict(info))

    @classmethod
    def from_flat(
        cls,
        flat: FlatSchedule,
        jobs: FlatSchedule,
        best: Optional[Tuple[FlatSchedule, FlatSchedule]] = None,
        **info: Any,
    ) -> "ScheduleResult":
        """Build a result from a scheduler's schedule, validated against
        ``jobs`` (over the same task table).

        ``flat`` lists the jobs in the order the scheduler placed them, as a
        :class:`Schedule` holds them (:meth:`FlatSchedule.as_added`).  The
        quality metrics (Psi, Upsilon) are computed even when the schedule
        violates a deadline — the ``schedulable`` flag records the
        violation — so that the timing accuracy of non-guaranteeing
        baselines (FIFO/GPIOCP) remains measurable, as in Figures 6-7 of the
        paper.
        """
        metrics = schedule_metrics(flat, jobs, strict=False)
        return cls(metrics.schedulable, flat, metrics, dict(info), best)

    @classmethod
    def from_schedule(
        cls, schedule: Schedule, jobs: Sequence[IOJob], **info: Any
    ) -> "ScheduleResult":
        """:meth:`from_flat` for a complete :class:`Schedule`, validated
        against the job objects ``jobs``."""
        result = cls.from_flat(*flatten(schedule, jobs), **info)
        result._schedule = schedule
        return result

    @property
    def schedule(self) -> Optional[Schedule]:
        if self._schedule is None and self.flat is not None:
            self._schedule = self.flat.to_schedule()
        return self._schedule

    @property
    def info(self) -> Dict[str, Any]:
        """:attr:`diagnostics`, with the best points as :class:`Schedule`
        objects under ``best_psi_schedule`` and ``best_upsilon_schedule``."""
        if self.best is not None and "best_psi_schedule" not in self.diagnostics:
            psi_point, upsilon_point = self.best
            self.diagnostics["best_psi_schedule"] = psi_point.to_schedule()
            self.diagnostics["best_upsilon_schedule"] = upsilon_point.to_schedule()
        return self.diagnostics

    @property
    def psi(self) -> float:
        return self.metrics.psi

    @property
    def upsilon(self) -> float:
        return self.metrics.upsilon


@dataclass
class SystemScheduleResult:
    """Outcome of scheduling a full (possibly multi-device) system."""

    schedulable: bool
    per_device: Dict[str, ScheduleResult]

    @property
    def schedules(self) -> SystemSchedule:
        system = SystemSchedule()
        for device, result in self.per_device.items():
            if result.schedule is not None:
                system[device] = result.schedule
        return system

    @property
    def psi(self) -> float:
        """System-wide Psi (job-weighted across devices) of the produced schedules.

        Computed even when a deadline is violated (see the ``schedulable`` flag),
        so that baselines without timing guarantees remain measurable.
        """
        return flat_psi(r.flat for r in self.per_device.values() if r.flat is not None)

    @property
    def upsilon(self) -> float:
        """System-wide Upsilon of the produced schedules (see :attr:`psi`)."""
        return flat_upsilon(r.flat for r in self.per_device.values() if r.flat is not None)


class Scheduler(ABC):
    """Base class for offline, per-partition I/O job schedulers."""

    #: Short identifier used by the experiment harness and result tables.
    name: str = "scheduler"

    @abstractmethod
    def schedule_jobs(self, jobs: Sequence[IOJob], horizon: int) -> ScheduleResult:
        """Schedule the jobs of one per-device partition over ``[0, horizon)``.

        All jobs must target the same I/O device.  Implementations must return
        a complete, constraint-respecting schedule or an infeasible result —
        they must not raise for unschedulable inputs.
        """

    def schedule_taskset(self, task_set: TaskSet, horizon: Optional[int] = None) -> SystemScheduleResult:
        """Partition a task set by device and schedule every partition.

        The system is schedulable iff every partition is.
        """
        if len(task_set) == 0:
            return SystemScheduleResult(schedulable=True, per_device={})
        if horizon is None:
            horizon = task_set.hyperperiod()
        per_device: Dict[str, ScheduleResult] = {}
        all_ok = True
        for device, partition in task_set.partition().items():
            jobs = partition.jobs(horizon)
            result = self.schedule_jobs(jobs, horizon)
            per_device[device] = result
            all_ok = all_ok and result.schedulable
        return SystemScheduleResult(schedulable=all_ok, per_device=per_device)


def schedule_system(
    scheduler: Scheduler, task_set: TaskSet, horizon: Optional[int] = None
) -> SystemScheduleResult:
    """Convenience function mirroring :meth:`Scheduler.schedule_taskset`."""
    return scheduler.schedule_taskset(task_set, horizon)
