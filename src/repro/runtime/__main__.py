"""JSONL batch CLI for the simulation service: ``python -m repro.runtime``.

Reads simulation requests (one versioned ``repro/sim-request`` payload per
line), executes them as one batch through
:class:`repro.runtime.SimulationService`, and writes the responses — one
versioned ``repro/sim-response`` payload per line, in request order — to
stdout or ``--output``.

Alternatively ``--scenario`` builds the batch declaratively: requests are
generated from a named (or inline-JSON) scenario for ``--systems`` system
indices, each ``--methods`` schedule spec and each ``--execution-models``
model, with no request file at all.

Examples::

    # What run-time architectures can be simulated?
    python -m repro.runtime --list-execution-models

    # Dedicated controller vs CPU-instigated I/O on a preset scenario
    python -m repro.runtime --scenario faulty-controller \
        --execution-models dedicated-controller cpu-instigated \
        --cache-dir runtime-cache/ -o responses.jsonl

    # Pipe mode: requests on stdin, responses on stdout
    python -m repro.runtime - < requests.jsonl > responses.jsonl

Re-running the same requests against a populated ``--cache-dir`` simulates
nothing: every response comes back flagged ``cache: hit``.  ``--cache-dir DIR``
keeps schedules under ``DIR/schedules`` and simulation responses under
``DIR/sim-responses``, as ``python -m repro.server serve`` does.
``python -m repro.service --cache-dir DIR`` stores schedules directly in
``DIR``, so it shares them with this CLI only when given ``DIR/schedules``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.core import logging as relog
from repro.runtime.messages import SimulationRequest
from repro.runtime.models import (
    ExecutionModelSpec,
    format_execution_model_listing,
)
from repro.runtime.service import SimulationService
from repro.scenario import create_scenario, format_scenario_listing
from repro.scheduling import format_scheduler_listing
from repro.service.spec import SchedulerSpec
from repro.store import SCHEDULE_CACHE_SUBDIR, SIM_CACHE_SUBDIR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Batch-simulate run-time execution of offline schedules; "
        "JSONL sim-requests in, JSONL sim-responses out.",
    )
    parser.add_argument(
        "input",
        nargs="?",
        default=None,
        help="request JSONL file ('-' reads stdin); one versioned "
        "repro/sim-request payload per line.  Omit when using --scenario",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_JSON",
        help="generate the request batch from a scenario (a registered preset "
        "name, see --list-scenarios, or inline repro/scenario JSON) instead "
        "of reading a request file",
    )
    parser.add_argument(
        "--systems",
        type=int,
        default=1,
        metavar="N",
        help="with --scenario: simulate system indices 0..N-1 (default: 1)",
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=["static"],
        metavar="SPEC",
        help="with --scenario: schedule-method spec strings whose schedules "
        "to execute (default: static)",
    )
    parser.add_argument(
        "--execution-models",
        nargs="+",
        default=["dedicated-controller"],
        metavar="MODEL",
        help="with --scenario: execution models to run each schedule on "
        "(default: dedicated-controller; see --list-execution-models)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="T",
        help="with --scenario: simulation horizon in microseconds "
        "(default: each system's hyper-period)",
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="with --scenario: bound the discrete-event simulation; an "
        "exhausted budget is reported on the response",
    )
    parser.add_argument(
        "--list-execution-models",
        action="store_true",
        help="list the registered execution models and exit",
    )
    parser.add_argument(
        "--list-methods",
        action="store_true",
        help="list the registered scheduling methods and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered scenario presets and exit",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="response JSONL file (default: stdout)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the batch (default: 1); responses are "
        "bit-identical at any worker count",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the persistent caches: simulation responses under "
        f"{SIM_CACHE_SUBDIR}/, offline schedules under {SCHEDULE_CACHE_SUBDIR}/ "
        "(omit to cache in memory for this batch only)",
    )
    parser.add_argument(
        "--cache-backend",
        default=None,
        metavar="SPEC",
        help="storage backend for both persistent caches, as a "
        "'name:key=value' spec string — e.g. 'sqlite:path=cache.db' (one "
        "file holds both caches) or 'directory:root=DIR' (equivalent to "
        "--cache-dir DIR).  Conflicts with --cache-dir; see "
        "`python -m repro.store --list-backends`",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the simulation and schedule caches' lifetime "
        "counters (entries/hits/misses/stores) and the per-worker "
        "memo-cache hit/miss counters to stderr after the batch",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the batch's metrics (Prometheus text exposition: request "
        "counters, cache ops, per-phase latency histograms) to FILE",
    )
    relog.add_log_level_argument(parser)
    return parser


def scenario_requests(
    scenario_ref: str,
    methods: Sequence[str],
    execution_models: Sequence[str],
    n_systems: int,
    *,
    horizon: Optional[int] = None,
    max_events: Optional[int] = None,
) -> List[SimulationRequest]:
    """Build the declarative request batch of ``--scenario`` mode."""
    scenario = create_scenario(scenario_ref)
    requests = []
    for system_index in range(n_systems):
        for method in methods:
            spec = SchedulerSpec.parse(method)
            for model in execution_models:
                model_spec = ExecutionModelSpec.parse(model)
                requests.append(
                    SimulationRequest(
                        scenario=scenario,
                        system_index=system_index,
                        method=spec,
                        execution_model=model_spec,
                        horizon=horizon,
                        max_events=max_events,
                        request_id=f"{scenario.name}/{system_index}/{spec}/{model_spec}",
                    )
                )
    return requests


def read_requests(handle: TextIO, *, source: str) -> List[SimulationRequest]:
    requests: List[SimulationRequest] = []
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(SimulationRequest.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as error:
            raise SystemExit(f"{source}:{line_number}: invalid request: {error}")
    return requests


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relog.configure_from_args(args)
    if args.list_execution_models or args.list_methods or args.list_scenarios:
        if args.list_execution_models:
            print(format_execution_model_listing())
        if args.list_methods:
            print(format_scheduler_listing())
        if args.list_scenarios:
            print(format_scenario_listing())
        return 0
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if (args.input is None) == (args.scenario is None):
        parser.error("provide exactly one of an input file and --scenario")
    if args.systems < 1:
        parser.error(f"--systems must be >= 1, got {args.systems}")

    if args.scenario is not None:
        try:
            requests = scenario_requests(
                args.scenario,
                args.methods,
                args.execution_models,
                args.systems,
                horizon=args.horizon,
                max_events=args.max_events,
            )
        except (ValueError, KeyError) as error:
            parser.error(f"--scenario: {error}")
    elif args.input == "-":
        requests = read_requests(sys.stdin, source="<stdin>")
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            requests = read_requests(handle, source=args.input)

    if args.cache_dir is not None and args.cache_backend is not None:
        parser.error("pass either --cache-dir or --cache-backend, not both")
    cache_dir = schedule_cache_dir = None
    if args.cache_dir is not None:
        root = Path(args.cache_dir)
        cache_dir = str(root / SIM_CACHE_SUBDIR)
        schedule_cache_dir = str(root / SCHEDULE_CACHE_SUBDIR)

    try:
        service = SimulationService(
            n_workers=args.workers,
            cache_dir=cache_dir,
            cache_backend=args.cache_backend,
            schedule_cache_dir=schedule_cache_dir,
        )
    except ValueError as error:
        parser.error(f"--cache-backend: {error}")
    with service:
        responses = service.submit_batch(requests)
        stats = service.stats()
        scheduling_stats = service.scheduling.stats()
        metrics_snapshot = service.metrics()

    lines = "".join(response.to_json() + "\n" for response in responses)
    if args.output is None:
        sys.stdout.write(lines)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(lines)

    hits = sum(1 for response in responses if response.cache == "hit")
    print(
        f"{len(responses)} response(s): {stats['computed']} simulated, "
        f"{hits} served from cache",
        file=sys.stderr,
    )
    if args.verbose:
        from repro.service.__main__ import format_cache_stats, format_memo_stats

        print(format_cache_stats("sim cache", stats), file=sys.stderr)
        print(format_cache_stats("schedule cache", scheduling_stats), file=sys.stderr)
        print(format_memo_stats(metrics_snapshot), file=sys.stderr)
    if args.metrics_out is not None:
        from repro.obs import write_metrics_file

        write_metrics_file(args.metrics_out, metrics_snapshot)
        relog.info("metrics-written", path=args.metrics_out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
