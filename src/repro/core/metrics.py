"""I/O-performance metrics Psi and Upsilon (Section III of the paper).

* ``Psi = |E| / |lambda|`` — the fraction of jobs that start *exactly* at
  their ideal start time (Equation (1)).
* ``Upsilon = sum V(kappa) / sum V(ideal)`` — the total obtained quality
  normalised by the maximum achievable quality (Equation (2)).

They are computed as array reductions over
:class:`~repro.core.schedule.FlatSchedule` vectors (:func:`flat_psi`,
:func:`flat_upsilon`, :func:`schedule_metrics`); :func:`schedule_metrics`
flattens a :class:`~repro.core.schedule.Schedule` first, as :func:`psi` and
:func:`upsilon` do.
:func:`linear_quality` is the element-wise quality curve the vector forms
and the GA's batched fitness share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.core.schedule import FlatSchedule, Schedule, flatten, task_table, validate_schedule
from repro.core.task import IOJob


def psi(schedule: Schedule) -> float:
    """Fraction of exactly timing-accurate jobs, ``Psi = |E| / |lambda|``."""
    return flat_psi([FlatSchedule.from_schedule(schedule, task_table([schedule]))])


def upsilon(schedule: Schedule) -> float:
    """Normalised total quality, ``Upsilon`` (Equation (2))."""
    return flat_upsilon([FlatSchedule.from_schedule(schedule, task_table([schedule]))])


@dataclass(frozen=True)
class ScheduleMetrics:
    """Summary of a schedule's timing-accuracy performance."""

    schedulable: bool
    psi: float
    upsilon: float
    n_jobs: int
    n_exact: int
    mean_abs_lateness_us: float

    @classmethod
    def infeasible(cls, n_jobs: int = 0) -> "ScheduleMetrics":
        """Metrics object representing an unschedulable system."""
        return cls(
            schedulable=False,
            psi=0.0,
            upsilon=0.0,
            n_jobs=n_jobs,
            n_exact=0,
            mean_abs_lateness_us=float("inf"),
        )


def schedule_metrics(
    schedule: Union[Schedule, FlatSchedule],
    jobs: Union[Sequence[IOJob], FlatSchedule, None] = None,
    *,
    strict: bool = True,
) -> ScheduleMetrics:
    """Compute the full metric summary for a schedule.

    ``schedule`` is a :class:`Schedule` (``jobs`` its job objects) or a
    :class:`FlatSchedule` (``jobs`` one too, over the same task table).
    If ``jobs`` is given, the schedule is also checked for completeness and
    constraint violations.  With ``strict`` (the default) a violating schedule
    is reported as unschedulable with zeroed quality metrics; with
    ``strict=False`` the quality metrics (Psi, Upsilon, lateness) are still
    computed from the schedule as produced — useful for measuring the timing
    accuracy of baselines such as GPIOCP even when they miss deadlines.
    """
    if isinstance(schedule, Schedule):
        schedule, jobs = flatten(schedule, jobs)
    violated = bool(validate_schedule(schedule, jobs, raise_on_error=False))
    if violated and strict:
        return ScheduleMetrics.infeasible(n_jobs=len(jobs) if jobs else len(schedule))
    n_jobs = len(schedule)
    distance = np.abs(schedule.start - schedule.ideal_starts())
    n_exact = int(np.count_nonzero(distance == 0))
    return ScheduleMetrics(
        schedulable=not violated,
        psi=n_exact / n_jobs if n_jobs else 1.0,
        upsilon=flat_upsilon([schedule]),
        n_jobs=n_jobs,
        n_exact=n_exact,
        mean_abs_lateness_us=int(distance.sum()) / n_jobs if n_jobs else 0.0,
    )


# -- vector forms ------------------------------------------------------------------


def linear_quality(
    distance: np.ndarray, theta: np.ndarray, v_max: np.ndarray, v_min: np.ndarray
) -> np.ndarray:
    """:meth:`LinearQualityCurve.value <repro.core.quality.LinearQualityCurve.value>`
    element-wise, with the same operations in the same order, so every
    value is bit-identical to the scalar curve's.

    ``distance`` is ``|start - ideal start|``; the arrays broadcast.
    Distances are non-negative, so ``distance >= theta`` covers
    ``theta <= 0`` too.
    """
    fraction = 1.0 - distance / np.maximum(theta, 1)
    decayed = v_min + (v_max - v_min) * fraction
    return np.where(distance == 0, v_max, np.where(distance >= theta, v_min, decayed))


def flat_psi(schedules: Iterable[FlatSchedule]) -> float:
    """System-wide Psi across several flat schedules (job-weighted)."""
    total = exact = 0
    for schedule in schedules:
        total += len(schedule)
        exact += int(np.count_nonzero(schedule.start == schedule.ideal_starts()))
    if total == 0:
        return 1.0
    return exact / total


def flat_upsilon(schedules: Iterable[FlatSchedule]) -> float:
    """System-wide Upsilon across several flat schedules (quality-weighted).

    The qualities are summed in the order the schedules list their jobs,
    schedule after schedule, left to right from ``0.0`` (``np.cumsum`` adds
    sequentially).  That order reaches the last bits: ``sum()`` (which
    compensates since Python 3.12) or another order would move them.
    """
    obtained: List[np.ndarray] = [np.zeros(1)]
    best: List[np.ndarray] = [np.zeros(1)]
    for schedule in schedules:
        columns = schedule.tasks.columns()
        task = schedule.task
        v_max = columns.v_max[task]
        distance = np.abs(schedule.start - schedule.ideal_starts())
        obtained.append(linear_quality(distance, columns.theta[task], v_max, columns.v_min[task]))
        best.append(v_max)
    ideal = float(np.cumsum(np.concatenate(best))[-1])
    if ideal == 0:
        return 1.0
    return float(np.cumsum(np.concatenate(obtained))[-1]) / ideal
