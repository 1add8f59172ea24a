"""Offline scheduling methods for timed I/O jobs (Section III of the paper).

Schedulers provided:

* :class:`FPSOfflineScheduler` — offline non-preemptive fixed-priority
  scheduling (the paper's "FPS-offline" baseline).
* :class:`GPIOCPScheduler` — the FIFO execution model of GPIOCP
  (Jiang & Audsley, DATE 2017), the paper's state-of-the-art baseline.
* :class:`HeuristicScheduler` — the paper's Algorithm 1 ("static"):
  dependency-graph decomposition plus LCC-D allocation, maximising Psi.
* :class:`GAScheduler` — the paper's multi-objective genetic-algorithm search,
  maximising both Psi and Upsilon.
* :class:`FPSOnlineSchedulabilityMethod` — the analytical "FPS-online"
  schedulability test adapted to the scheduler API (produces no schedule).
"""

from repro.scheduling.base import (
    Scheduler,
    ScheduleResult,
    SystemScheduleResult,
    schedule_system,
)
from repro.scheduling.dependency_graph import (
    DependencyGraphs,
    build_dependency_graphs,
    decompose_graphs,
)
from repro.scheduling.registry import (
    available_schedulers,
    create_scheduler,
    format_scheduler_listing,
    get_scheduler_factory,
    list_schedulers,
    register_scheduler,
    scheduler_registered,
    unregister_scheduler,
)
from repro.scheduling.fps import FPSOfflineScheduler
from repro.scheduling.gpiocp import GPIOCPScheduler
from repro.scheduling.heuristic import HeuristicScheduler
from repro.scheduling.online import FPSOnlineSchedulabilityMethod
from repro.scheduling.lccd import LCCDAllocator
from repro.scheduling.ga import GAScheduler, GAConfig

__all__ = [
    "Scheduler",
    "ScheduleResult",
    "SystemScheduleResult",
    "schedule_system",
    "FPSOfflineScheduler",
    "FPSOnlineSchedulabilityMethod",
    "GPIOCPScheduler",
    "HeuristicScheduler",
    "GAScheduler",
    "GAConfig",
    "register_scheduler",
    "unregister_scheduler",
    "create_scheduler",
    "get_scheduler_factory",
    "list_schedulers",
    "format_scheduler_listing",
    "scheduler_registered",
    "available_schedulers",
    "LCCDAllocator",
    "DependencyGraphs",
    "build_dependency_graphs",
    "decompose_graphs",
]
