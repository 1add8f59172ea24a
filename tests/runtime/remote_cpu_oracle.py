"""Packet-by-packet reference run of the CPU-instigated models (test oracle).

``repro.runtime.models`` hands a CPU-instigated run's whole packet sequence
to ``NoCNetwork.transport``, one call-order pass over the mesh's links.
This module keeps the original version, which builds a ``Packet`` per
request and per background packet and moves each one through the stateful
routers with ``NoCNetwork.send``, so the property tests can check the
models against it for exact equality: runtime start times, request
latencies, ``events_processed``, ``exhausted`` and ``skipped_jobs``.

:func:`execute` reads its ``max_events`` budget net of the packets the
network already delivered and leaves every packet it sent in
``platform.network``, so it must be given a fresh platform per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.task import TaskSet
from repro.noc.packet import Packet
from repro.runtime.models import ExecutionOutcome


def execute(
    model,
    task_set: TaskSet,
    schedules: Dict[str, Schedule],
    platform,
    *,
    seed: int = 0,
    max_events: Optional[int] = None,
) -> ExecutionOutcome:
    """Run ``model`` (a CPU-instigated model) one ``NoCNetwork.send`` at a time."""
    network = platform.network
    background_per_job = platform.spec.background_packets_per_job
    io_tile = platform.io_tile
    cpu_tiles = platform.cpu_tiles()

    all_entries: List[ScheduleEntry] = [
        entry for schedule in schedules.values() for entry in schedule.sorted_entries()
    ]
    all_entries.sort(key=lambda e: e.start)

    events_per_job = 1 + background_per_job
    jobs = all_entries
    if max_events is not None:
        budget = (max_events - len(network.delivered)) // events_per_job
        jobs = all_entries[: max(0, budget)]

    tasks = list(task_set)
    bounds = [len(cpu_tiles)] * len(tasks)
    bounds += [len(cpu_tiles), model.jitter_window] * (background_per_job * len(jobs))
    draws = np.random.default_rng(seed).integers(0, bounds).tolist()
    cpu_of_task = {task.name: cpu_tiles[tile] for task, tile in zip(tasks, draws)}
    background = list(zip(draws[len(tasks) :: 2], draws[len(tasks) + 1 :: 2]))

    runtime: Dict[str, Schedule] = {device: Schedule(device=device) for device in schedules}
    device_free_at: Dict[str, int] = {device: 0 for device in schedules}
    for position, entry in enumerate(jobs):
        burst = background[background_per_job * position : background_per_job * (position + 1)]
        source = cpu_of_task[entry.job.task.name]
        if model.background_first:
            _inject_background(model, network, burst, cpu_tiles, io_tile, entry.start)
        request = Packet(
            source=source,
            destination=io_tile,
            size_flits=model.request_size_flits,
            kind="io-request",
        )
        delivered = network.send(request, entry.start)
        if not model.background_first:
            _inject_background(
                model, network, burst, cpu_tiles, io_tile, entry.start, behind=True
            )
        device = entry.job.device
        start = max(delivered, device_free_at[device])
        runtime[device].add(ScheduleEntry(job=entry.job, start=start))
        device_free_at[device] = start + entry.job.wcet

    return ExecutionOutcome(
        runtime_schedules=runtime,
        offline_schedules={
            device: Schedule(schedule.entries, device=schedule.device)
            for device, schedule in schedules.items()
        },
        executed_jobs=len(jobs),
        skipped_jobs=len(all_entries) - len(jobs),
        faults_detected=0,
        mean_noc_latency=network.mean_latency(kind="io-request"),
        max_noc_latency=network.max_latency(kind="io-request"),
        events_processed=len(network.delivered),
        exhausted=len(jobs) < len(all_entries),
        trace_counts={"packet-delivered": len(network.delivered)},
    )


def _inject_background(
    model,
    network,
    burst: List[Tuple[int, int]],
    cpu_tiles,
    io_tile,
    start: int,
    *,
    behind: bool = False,
) -> None:
    """Send one background packet per ``(tile, jitter)`` draw of ``burst``."""
    for tile, jitter in burst:
        at = start + jitter if behind else max(0, start - jitter)
        network.send(
            Packet(
                source=cpu_tiles[tile],
                destination=io_tile,
                size_flits=model.background_size_flits,
                kind="background",
            ),
            at,
        )
