"""JSONL batch CLI for the simulation service: ``python -m repro.runtime``.

Reads simulation requests (one versioned ``repro/sim-request`` payload per
line), executes them as one batch through
:class:`repro.runtime.SimulationService`, and writes the responses — one
versioned ``repro/sim-response`` payload per line, in request order — to
stdout or ``--output``.  The loop is
:class:`repro.service.batch_cli.BatchCli`, shared with
``python -m repro.service`` and ``python -m repro.server request``.

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
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.runtime.messages import SimulationRequest
from repro.runtime.models import ExecutionModelSpec
from repro.runtime.service import SimulationService
from repro.service.batch_cli import BatchCli, open_service
from repro.service.batch_cli import scenario_requests as schedule_scenario_requests
from repro.store import SCHEDULE_CACHE_SUBDIR, SIM_CACHE_SUBDIR


def scenario_requests(
    scenario_ref: str,
    methods: Sequence[str],
    execution_models: Sequence[str],
    n_systems: int,
    *,
    horizon: Optional[int] = None,
    max_events: Optional[int] = None,
) -> List[SimulationRequest]:
    """The requests of ``--scenario`` mode: each schedule request of
    ``python -m repro.service --scenario``, run on every execution model."""
    schedule_requests = schedule_scenario_requests(scenario_ref, methods, n_systems)
    models = [ExecutionModelSpec.parse(model) for model in execution_models]
    return [
        SimulationRequest(
            scenario=request.scenario,
            system_index=request.system_index,
            method=request.spec,
            execution_model=model,
            horizon=horizon,
            max_events=max_events,
            request_id=f"{request.request_id}/{model}",
        )
        for request in schedule_requests
        for model in models
    ]


class SimulationBatchCli(BatchCli):
    prog = "python -m repro.runtime"
    description = (
        "Batch-simulate run-time execution of offline schedules; "
        "JSONL sim-requests in, JSONL sim-responses out."
    )
    request_cls = SimulationRequest
    request_kinds = "repro/sim-request"
    computed_word = "simulated"
    listing_order = ("execution-models", "methods", "scenarios")
    cache_dir_help = (
        "directory for the persistent caches: simulation responses under "
        f"{SIM_CACHE_SUBDIR}/, offline schedules under {SCHEDULE_CACHE_SUBDIR}/ "
        "(omit to cache in memory for this batch only)"
    )
    cache_backend_help = (
        "storage backend for both persistent caches, as a "
        "'name:key=value' spec string — e.g. 'sqlite:path=cache.db' (one "
        "file holds both caches) or 'directory:root=DIR' (equivalent to "
        "--cache-dir DIR).  Conflicts with --cache-dir; see "
        "`python -m repro.store --list-backends`"
    )

    def add_own_arguments(self, parser: argparse.ArgumentParser) -> None:
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
            help="with --scenario: bound each run's events (controller "
            "triggers or NoC packets); an exhausted budget is reported on "
            "the response",
        )

    def derive(self, source: str, args: argparse.Namespace) -> List[SimulationRequest]:
        return scenario_requests(
            args.scenario,
            args.methods,
            args.execution_models,
            args.systems,
            horizon=args.horizon,
            max_events=args.max_events,
        )

    def open(self, parser, args) -> SimulationService:
        cache_dir = schedule_cache_dir = None
        if args.cache_dir is not None:
            root = Path(args.cache_dir)
            cache_dir = str(root / SIM_CACHE_SUBDIR)
            schedule_cache_dir = str(root / SCHEDULE_CACHE_SUBDIR)
        return open_service(
            parser,
            SimulationService,
            n_workers=args.workers,
            cache_dir=cache_dir,
            cache_backend=args.cache_backend,
            schedule_cache_dir=schedule_cache_dir,
        )

    def caches(self, service: SimulationService):
        return [("sim cache", service.stats()), ("schedule cache", service.scheduling.stats())]


CLI = SimulationBatchCli()
build_parser = CLI.build_parser
main = CLI.main


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
