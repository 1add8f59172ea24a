"""JSONL batch CLI for the scheduling service: ``python -m repro.service``.

Reads schedule requests (one versioned JSON payload per line, see
:class:`repro.service.ScheduleRequest`), executes them as one batch through
:class:`repro.service.SchedulingService`, and writes the responses — one
versioned JSON payload per line, in request order — to stdout or ``--output``.
The loop is :class:`repro.service.batch_cli.BatchCli`, shared with
``python -m repro.runtime`` and ``python -m repro.server request``.

Alternatively ``--scenario`` builds the batch declaratively: requests are
generated from a named (or inline-JSON) scenario for ``--systems`` system
indices and each ``--methods`` spec, with no request file at all.
``--campaign`` goes one level further and expands a whole campaign grid
(see :mod:`repro.campaign`) into the batch.

Examples::

    # Schedule a request file on four workers with a persistent cache
    python -m repro.service requests.jsonl --workers 4 --cache-dir cache/ -o responses.jsonl

    # Pipe mode: requests on stdin, responses on stdout
    python -m repro.service - < requests.jsonl > responses.jsonl

    # Declarative mode: schedule 3 systems of a preset scenario two ways
    python -m repro.service --scenario faulty-controller --systems 3 \
        --methods static gpiocp -o responses.jsonl

Re-running the same requests against a populated ``--cache-dir`` recomputes
nothing: every response comes back flagged ``cache: hit``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.core.profiling import maybe_profile
from repro.service.batch_cli import (
    BatchCli,
    BatchResult,
    add_profile_argument,
    open_service,
    scenario_requests,
)
from repro.service.messages import ScheduleRequest
from repro.service.service import SchedulingService


def campaign_requests(campaign_ref: str) -> List[ScheduleRequest]:
    """Build the request batch of ``--campaign`` mode: the whole grid.

    Requests are content-identical to what :class:`~repro.campaign.CampaignRunner`
    submits, so a service batch and a checkpointed campaign run share
    schedule-cache entries.
    """
    from repro.campaign import cell_request, load_campaign

    spec = load_campaign(campaign_ref)
    return [cell_request(spec, cell) for cell in spec.cells()]


class ScheduleBatchCli(BatchCli):
    prog = "python -m repro.service"
    description = "Batch-schedule JSONL schedule requests; JSONL responses out."
    request_cls = ScheduleRequest
    request_kinds = "repro/schedule-request"
    sources = ("scenario", "campaign")
    cache_dir_help = (
        "directory for the persistent content-addressed schedule cache "
        "(omit to cache in memory for this batch only)"
    )
    cache_backend_help = (
        "storage backend for the persistent schedule cache, as a "
        "'name:key=value' spec string — e.g. 'sqlite:path=cache.db' or "
        "'directory:root=DIR' (persists under DIR/schedules; see "
        "`python -m repro.store --list-backends`).  Conflicts with --cache-dir"
    )

    def add_own_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--campaign",
            default=None,
            metavar="SPEC_OR_FILE",
            help="generate the request batch from a campaign grid (a repro/campaign "
            "JSON file or inline JSON) instead of a request file; responses come "
            "back in canonical grid order.  See `python -m repro.campaign` for "
            "checkpointed runs and aggregated reports",
        )
        add_profile_argument(parser)

    def derive(self, source: str, args: argparse.Namespace) -> List[ScheduleRequest]:
        if source == "campaign":
            return campaign_requests(args.campaign)
        return scenario_requests(args.scenario, args.methods, args.systems)

    def open(self, parser, args) -> SchedulingService:
        return open_service(
            parser,
            SchedulingService,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            cache_backend=args.cache_backend,
        )

    def execute(self, parser, args, requests) -> BatchResult:
        with maybe_profile(args.profile):
            return super().execute(parser, args, requests)


CLI = ScheduleBatchCli()
build_parser = CLI.build_parser
main = CLI.main


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
