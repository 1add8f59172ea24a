"""I/O-performance metrics Psi and Upsilon (Section III of the paper).

* ``Psi = |E| / |lambda|`` — the fraction of jobs that start *exactly* at
  their ideal start time (Equation (1)).
* ``Upsilon = sum V(kappa) / sum V(ideal)`` — the total obtained quality
  normalised by the maximum achievable quality (Equation (2)).

Both come in two forms: over :class:`~repro.core.schedule.Schedule` objects
and, for the run-time layer, over
:class:`~repro.core.schedule.FlatSchedule` vectors
(:func:`flat_psi`, :func:`flat_upsilon`).  :func:`linear_quality` is the
element-wise quality curve the vector forms and the GA's batched fitness
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.schedule import FlatSchedule, Schedule, ScheduleEntry, validate_schedule
from repro.core.task import IOJob


def exact_accurate_jobs(schedule: Schedule) -> List[ScheduleEntry]:
    """The set ``E`` of exactly timing-accurate jobs (Equation (1))."""
    return [entry for entry in schedule.entries if entry.is_exact]


def psi(schedule: Schedule) -> float:
    """Fraction of exactly timing-accurate jobs, ``Psi = |E| / |lambda|``."""
    total = len(schedule)
    if total == 0:
        return 1.0
    return len(exact_accurate_jobs(schedule)) / total


def upsilon(schedule: Schedule) -> float:
    """Normalised total quality, ``Upsilon`` (Equation (2))."""
    entries = schedule.entries
    if not entries:
        return 1.0
    # A left-to-right loop, not sum(): since Python 3.12 sum() adds floats
    # with compensation, which would move Upsilon's last bits.
    obtained = ideal = 0
    for entry in entries:
        obtained += entry.quality
        ideal += entry.job.max_quality()
    if ideal == 0:
        return 1.0
    return obtained / ideal


def mean_absolute_lateness(schedule: Schedule) -> float:
    """Mean absolute distance between actual and ideal start times (microseconds).

    Not a paper metric, but a useful diagnostic for timing accuracy.
    """
    entries = schedule.entries
    if not entries:
        return 0.0
    return sum(abs(entry.lateness) for entry in entries) / len(entries)


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
    schedule: Schedule,
    jobs: Optional[Sequence[IOJob]] = None,
    *,
    strict: bool = True,
) -> ScheduleMetrics:
    """Compute the full metric summary for a schedule.

    If ``jobs`` is given, the schedule is also checked for completeness and
    constraint violations.  With ``strict`` (the default) a violating schedule
    is reported as unschedulable with zeroed quality metrics; with
    ``strict=False`` the quality metrics (Psi, Upsilon, lateness) are still
    computed from the schedule as produced — useful for measuring the timing
    accuracy of baselines such as GPIOCP even when they miss deadlines.
    """
    violations = validate_schedule(schedule, jobs, raise_on_error=False)
    if violations and strict:
        return ScheduleMetrics.infeasible(n_jobs=len(jobs) if jobs else len(schedule))
    exact = exact_accurate_jobs(schedule)
    return ScheduleMetrics(
        schedulable=not violations,
        psi=psi(schedule),
        upsilon=upsilon(schedule),
        n_jobs=len(schedule),
        n_exact=len(exact),
        mean_abs_lateness_us=mean_absolute_lateness(schedule),
    )


def aggregate_psi(schedules: Iterable[Schedule]) -> float:
    """System-wide Psi across several per-device schedules (job-weighted)."""
    total_jobs = 0
    total_exact = 0
    for schedule in schedules:
        total_jobs += len(schedule)
        total_exact += len(exact_accurate_jobs(schedule))
    if total_jobs == 0:
        return 1.0
    return total_exact / total_jobs


def aggregate_upsilon(schedules: Iterable[Schedule]) -> float:
    """System-wide Upsilon across several per-device schedules (quality-weighted)."""
    obtained = 0.0
    ideal = 0.0
    for schedule in schedules:
        for entry in schedule.entries:
            obtained += entry.quality
            ideal += entry.job.max_quality()
    if ideal == 0:
        return 1.0
    return obtained / ideal


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
    """:func:`aggregate_psi` over flat schedules."""
    total = exact = 0
    for schedule in schedules:
        total += len(schedule)
        exact += int(np.count_nonzero(schedule.start == schedule.ideal_starts()))
    if total == 0:
        return 1.0
    return exact / total


def flat_upsilon(schedules: Iterable[FlatSchedule]) -> float:
    """:func:`aggregate_upsilon` over flat schedules, bit for bit.

    The qualities are summed in the order the schedules list their jobs,
    left to right from ``0.0`` (``np.cumsum`` adds sequentially), as the
    object form's loop does.
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
