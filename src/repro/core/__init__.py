"""Core task model for timed I/O scheduling.

This sub-package implements the system and task model of Section II of the
paper: periodic, non-preemptive timed I/O tasks with ideal start times and
quality curves, the jobs they release over a hyper-period, per-device
partitions, explicit offline schedules, and the two I/O-performance metrics
(Psi and Upsilon) used throughout the evaluation.
"""

from repro.core.memo import (
    LRUMemo,
    drain_memo_metrics,
    get_memo,
    memo_stats,
    reset_memos,
)
from repro.core.hyperperiod import hyperperiod, jobs_in_hyperperiod, lcm, lcm_many
from repro.core.metrics import (
    ScheduleMetrics,
    flat_psi,
    flat_upsilon,
    psi,
    schedule_metrics,
    upsilon,
)
from repro.core.partition import (
    partition_by_device,
    partition_jobs_by_device,
    partition_utilisations,
)
from repro.core.quality import LinearQualityCurve, QualityCurve, StepQualityCurve
from repro.core.schedule import (
    Schedule,
    ScheduleEntry,
    ScheduleValidationError,
    SystemSchedule,
    validate_schedule,
)
from repro.core.task import MS, US, IOJob, IOTask, TaskSet, make_task_ms

__all__ = [
    "LRUMemo",
    "get_memo",
    "memo_stats",
    "reset_memos",
    "drain_memo_metrics",
    "IOTask",
    "IOJob",
    "TaskSet",
    "make_task_ms",
    "MS",
    "US",
    "QualityCurve",
    "LinearQualityCurve",
    "StepQualityCurve",
    "Schedule",
    "ScheduleEntry",
    "SystemSchedule",
    "ScheduleValidationError",
    "validate_schedule",
    "hyperperiod",
    "jobs_in_hyperperiod",
    "lcm",
    "lcm_many",
    "partition_by_device",
    "partition_jobs_by_device",
    "partition_utilisations",
    "psi",
    "upsilon",
    "flat_psi",
    "flat_upsilon",
    "schedule_metrics",
    "ScheduleMetrics",
]
