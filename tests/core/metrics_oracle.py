"""The object walks a scheduler result was scored by (test oracle).

``repro.core.metrics``, ``repro.core.schedule`` and the service score and
check a scheduler's schedule as array reductions over ``FlatSchedule``
start vectors.  This module keeps the walks over ``Schedule`` objects that
those reductions replaced, so the property tests can hold the vectors to
them: constraint checking with its messages, the per-schedule metrics, the
system Psi and Upsilon, and the GA's best points.

Upsilon adds left to right in a plain loop, in each schedule's insertion
order and across schedules in the order given: since Python 3.12 ``sum()``
adds floats with compensation, which would move the last bits.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule, ScheduleEntry, ScheduleValidationError
from repro.core.task import IOJob


def validate_schedule(
    schedule: Schedule,
    jobs: Optional[Sequence[IOJob]] = None,
    *,
    raise_on_error: bool = True,
) -> List[str]:
    """Missing jobs, then Constraint 1 per entry, then Constraint 2 between
    neighbours in start order."""
    violations: List[str] = []

    if jobs is not None:
        scheduled_keys = {entry.job.key for entry in schedule.entries}
        for job in jobs:
            if job.key not in scheduled_keys:
                violations.append(f"job {job.name} is missing from the schedule")

    for entry in schedule.entries:
        job = entry.job
        if entry.start < job.release:
            violations.append(
                f"job {job.name} starts at {entry.start} before its release {job.release}"
            )
        if entry.finish > job.deadline:
            violations.append(
                f"job {job.name} finishes at {entry.finish} after its deadline {job.deadline}"
            )

    ordered = schedule.sorted_entries()
    for previous, current in zip(ordered, ordered[1:]):
        if current.start < previous.finish:
            violations.append(
                f"jobs {previous.job.name} and {current.job.name} overlap: "
                f"[{previous.start}, {previous.finish}) and [{current.start}, {current.finish})"
            )

    if violations and raise_on_error:
        raise ScheduleValidationError("; ".join(violations))
    return violations


def exact_accurate_jobs(schedule: Schedule) -> List[ScheduleEntry]:
    return [entry for entry in schedule.entries if entry.is_exact]


def psi(schedule: Schedule) -> float:
    total = len(schedule)
    if total == 0:
        return 1.0
    return len(exact_accurate_jobs(schedule)) / total


def upsilon(schedule: Schedule) -> float:
    return aggregate_upsilon([schedule])


def mean_absolute_lateness(schedule: Schedule) -> float:
    entries = schedule.entries
    if not entries:
        return 0.0
    return sum(abs(entry.lateness) for entry in entries) / len(entries)


def schedule_metrics(
    schedule: Schedule, jobs: Optional[Sequence[IOJob]] = None, *, strict: bool = True
) -> ScheduleMetrics:
    violations = validate_schedule(schedule, jobs, raise_on_error=False)
    if violations and strict:
        return ScheduleMetrics.infeasible(n_jobs=len(jobs) if jobs else len(schedule))
    return ScheduleMetrics(
        schedulable=not violations,
        psi=psi(schedule),
        upsilon=upsilon(schedule),
        n_jobs=len(schedule),
        n_exact=len(exact_accurate_jobs(schedule)),
        mean_abs_lateness_us=mean_absolute_lateness(schedule),
    )


def aggregate_psi(schedules: Iterable[Schedule]) -> float:
    total_jobs = 0
    total_exact = 0
    for schedule in schedules:
        total_jobs += len(schedule)
        total_exact += len(exact_accurate_jobs(schedule))
    if total_jobs == 0:
        return 1.0
    return total_exact / total_jobs


def aggregate_upsilon(schedules: Iterable[Schedule]) -> float:
    obtained = 0.0
    ideal = 0.0
    for schedule in schedules:
        for entry in schedule.entries:
            obtained += entry.quality
            ideal += entry.job.max_quality()
    if ideal == 0:
        return 1.0
    return obtained / ideal


def system_psi_upsilon(schedules: Iterable[Optional[Schedule]]) -> Tuple[float, float]:
    """A system result's Psi and Upsilon over its devices' schedules, in
    device order, leaving out empty and missing ones."""
    produced = [schedule for schedule in schedules if schedule]
    return aggregate_psi(produced), aggregate_upsilon(produced)


def ga_best_objectives(
    points: Iterable[Tuple[Optional[Schedule], Optional[Schedule], Optional[Schedule]]],
) -> Tuple[float, float]:
    """Best-Psi and best-Upsilon aggregates over ``(schedule, best-Psi
    schedule, best-Upsilon schedule)`` per device, in device order; a device
    without best points stands in with its schedule."""
    best_psi: List[Schedule] = []
    best_upsilon: List[Schedule] = []
    for schedule, psi_schedule, upsilon_schedule in points:
        psi_schedule = psi_schedule or schedule
        upsilon_schedule = upsilon_schedule or schedule
        if psi_schedule is not None:
            best_psi.append(psi_schedule)
        if upsilon_schedule is not None:
            best_upsilon.append(upsilon_schedule)
    return (
        aggregate_psi(best_psi) if best_psi else 0.0,
        aggregate_upsilon(best_upsilon) if best_upsilon else 0.0,
    )
