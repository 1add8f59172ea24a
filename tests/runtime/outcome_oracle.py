"""The object rules a run-time outcome is scored by (test oracle).

``ControllerRunResult`` (``repro.hardware.controller``) scores its flat
runtime and offline schedules with array reductions.  This module keeps the
rules those reductions replaced, over ``Schedule`` objects, so the property
tests can hold the vectors to them: Psi and Upsilon through
``aggregate_psi`` and ``aggregate_upsilon``, and the walks over runtime
entries behind the start-time deviations, ``matches_offline`` and the
accuracy.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.metrics import aggregate_psi, aggregate_upsilon
from repro.core.schedule import Schedule


def psi(runtime: Dict[str, Schedule]) -> float:
    return aggregate_psi(runtime.values())


def upsilon(runtime: Dict[str, Schedule]) -> float:
    return aggregate_upsilon(runtime.values())


def matches_offline(runtime: Dict[str, Schedule], offline: Dict[str, Schedule]) -> bool:
    """True iff every executed job started exactly at its offline start time;
    a device without an offline schedule never matches."""
    for device, ran in runtime.items():
        loaded = offline.get(device)
        if loaded is None:
            return False
        for entry in ran.entries:
            if entry.job not in loaded or loaded.start_of(entry.job) != entry.start:
                return False
    return True


def start_time_deviations(
    runtime: Dict[str, Schedule], offline: Dict[str, Schedule]
) -> List[int]:
    """Per-job |runtime start - offline start| for every executed job that
    its device's offline schedule holds, in run order."""
    deviations: List[int] = []
    for device, ran in runtime.items():
        loaded = offline.get(device)
        if loaded is None:
            continue
        for entry in ran.entries:
            if entry.job in loaded:
                deviations.append(abs(entry.start - loaded.start_of(entry.job)))
    return deviations


def accuracy(runtime: Dict[str, Schedule], offline: Dict[str, Schedule]) -> float:
    """Fraction of offline jobs executed exactly at their offline start."""
    total = sum(len(schedule.entries) for schedule in offline.values())
    if total == 0:
        return 1.0
    deviations = start_time_deviations(runtime, offline)
    return sum(1 for deviation in deviations if deviation == 0) / total
