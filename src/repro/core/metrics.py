"""I/O-performance metrics Psi and Upsilon (Section III of the paper).

* ``Psi = |E| / |lambda|`` — the fraction of jobs that start *exactly* at
  their ideal start time (Equation (1)).
* ``Upsilon = sum V(kappa) / sum V(ideal)`` — the total obtained quality
  normalised by the maximum achievable quality (Equation (2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.schedule import Schedule, ScheduleEntry, validate_schedule
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
