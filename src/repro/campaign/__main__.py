"""``python -m repro.campaign`` — run campaigns and aggregate their reports.

Two subcommands over one artifact convention (a directory per campaign,
keyed by the spec's content hash, holding ``campaign.json`` + the
``campaign.jsonl`` cell journal):

``run``
    Execute a campaign grid.  The spec comes from a JSON file, inline JSON,
    or is built right on the command line from ``--scenarios``/``--methods``
    style flags.  ``--resume`` continues an interrupted campaign with zero
    recomputation; ``--workers`` fans the cells out over a process pool
    without changing a single output byte.  ``--shard I/N`` runs only the
    ``I``-th of ``N`` disjoint content-key ranges of the grid — launch N
    such processes (same spec, same ``--artifact-dir``) and the last one to
    finish merges the per-shard journals into the canonical
    ``campaign.jsonl``, byte-identical to a single-process run.
``merge``
    Reassemble ``campaign.jsonl`` from complete shard journals by hand —
    what the auto-merge does, for when the shards ran on different machines
    and their journals were copied together afterwards.
``report``
    Aggregate a campaign's journal into a :class:`CampaignReport` and emit
    it as an aligned text table, Markdown leaderboards, or versioned JSON.

Examples::

    # A 6-cell campaign built from flags, run on 2 workers, reported as text
    python -m repro.campaign run --name demo \\
        --scenarios paper-default short-hyperperiod --methods static gpiocp \\
        --systems 1 --utilisations 0.4 --artifact-dir campaigns/ --workers 2

    # Interrupted?  Resume recomputes nothing:
    python -m repro.campaign run --name demo ... --artifact-dir campaigns/ --resume

    # The same campaign split over two concurrent workers sharing one
    # SQLite cache; whichever finishes last merges the shard journals
    python -m repro.campaign run --name demo ... --artifact-dir campaigns/ \\
        --cache-backend sqlite:path=cache.db --shard 1/2 &
    python -m repro.campaign run --name demo ... --artifact-dir campaigns/ \\
        --cache-backend sqlite:path=cache.db --shard 2/2

    # Aggregate and emit the Markdown leaderboard
    python -m repro.campaign report --artifact-dir campaigns/ --format md

    # What can campaigns be built from?
    python -m repro.campaign --list
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.campaign.report import CampaignReport
from repro.campaign.timings import format_timings_table, read_timing_entries
from repro.core import logging as relog
from repro.campaign.runner import (
    CAMPAIGN_SPEC_FILENAME,
    CampaignRunner,
    load_campaign_records,
    merge_shard_journals,
    parse_shard,
)
from repro.campaign.spec import (
    CAMPAIGN_METRICS,
    CampaignSpec,
    build_campaign,
    load_campaign,
)
from repro.runtime import format_execution_model_listing
from repro.scenario import format_scenario_listing
from repro.scheduling import format_scheduler_listing
from repro.service.batch_cli import (
    add_listing_arguments,
    add_metrics_out_argument,
    add_output_argument,
    add_service_arguments,
    validate_execution_models,
    validate_methods,
    write_output,
    write_runner_metrics,
)

REPORT_FORMATS = ("table", "md", "json")

_BUILDER_FLAGS = (
    "name",
    "scenarios",
    "methods",
    "execution_models",
    "systems",
    "utilisations",
    "replications",
    "metrics",
    "description",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Declarative multi-scenario campaign orchestration: "
        "run scenario x method grids, resume them, aggregate reports.",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the building blocks of a campaign (registered scenario "
        "presets with content keys, registered scheduling methods) and exit",
    )
    add_listing_arguments(parser, ("scenarios", "methods", "execution-models"))
    commands = parser.add_subparsers(dest="command")

    run = commands.add_parser(
        "run", help="execute a campaign grid (checkpointed, resumable)"
    )
    run.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec: a repro/campaign JSON file or inline JSON; omit "
        "to build the spec from the flags below",
    )
    run.add_argument(
        "--name", default=None, help="campaign name (flag-built specs; default: campaign)"
    )
    run.add_argument("--description", default=None, help="campaign description")
    run.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="NAME_OR_JSON",
        help="scenarios of the grid (preset names or inline scenario JSON; "
        "default: paper-default)",
    )
    run.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="scheduler spec strings of the grid (default: static)",
    )
    run.add_argument(
        "--execution-models",
        nargs="+",
        default=None,
        metavar="MODEL",
        help="add a runtime section: execute every cell's schedule on these "
        "execution models (see --list-execution-models); omit for a "
        "schedule-only campaign",
    )
    run.add_argument(
        "--systems",
        type=int,
        default=None,
        metavar="N",
        help="system indices 0..N-1 per scenario (default: 1)",
    )
    run.add_argument(
        "--utilisations",
        nargs="+",
        type=float,
        default=None,
        metavar="U",
        help="utilisation points to pin per scenario (default: each "
        "scenario's own workload utilisation)",
    )
    run.add_argument(
        "--replications",
        type=int,
        default=None,
        metavar="N",
        help="replications per cell; decorrelates stochastic methods "
        "(default: 1)",
    )
    run.add_argument(
        "--metrics",
        nargs="+",
        default=None,
        choices=list(CAMPAIGN_METRICS),
        help="metrics to record per cell (default: all)",
    )
    run.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="root directory for campaign artifacts (spec + cell journal); "
        "required for --resume",
    )
    add_service_arguments(
        run,
        workers="worker processes of the scheduling service (default: 1); "
        "results are bit-identical at any worker count",
        cache_dir="persistent content-addressed schedule cache shared with other "
        "service consumers (omit to cache in memory for this run only)",
        cache_backend="storage backend for the persistent caches, as a 'name:key=value' "
        "spec string — e.g. 'sqlite:path=cache.db' holds the schedule and "
        "simulation caches in one file, safe to share between concurrent "
        "shard workers (see `python -m repro.store --list-backends`).  "
        "Conflicts with --cache-dir",
    )
    run.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only the I-th of N disjoint content-key shards of the grid "
        "(1-based), journalling to campaign.shard-I-of-N.jsonl; requires "
        "--artifact-dir.  When the last shard finishes, the journals are "
        "merged into the canonical campaign.jsonl automatically",
    )
    run.add_argument(
        "--server",
        default=None,
        metavar="HOST:PORT",
        help="evaluate cells through a running repro.server daemon instead of "
        "a private worker pool (see `python -m repro.server serve`); "
        "--workers/--cache-dir then belong to the daemon and are rejected "
        "here",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign from its journal (zero "
        "recomputation); without this flag, existing progress is an error",
    )
    run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="evaluate at most N pending cells then stop (testing/budgeting; "
        "resume later with --resume)",
    )
    run.add_argument(
        "--report",
        dest="report_format",
        choices=(*REPORT_FORMATS, "none"),
        default="table",
        help="report format printed after the run (default: table)",
    )
    add_output_argument(run, "write the report to FILE instead of stdout")
    run.add_argument(
        "--timings",
        action="store_true",
        help="record per-cell wall-clock timings to a campaign.metrics.jsonl "
        "sidecar next to the journal (observability only — the journal's "
        "bytes are unchanged); view with `report --timings`.  Requires "
        "--artifact-dir",
    )
    add_metrics_out_argument(run)
    relog.add_log_level_argument(run)

    merge = commands.add_parser(
        "merge",
        help="merge complete shard journals into the canonical campaign.jsonl "
        "(what the last finishing shard does automatically)",
    )
    merge.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec (JSON file or inline JSON); omit to auto-discover "
        "the campaign under --artifact-dir (or select one with --key)",
    )
    merge.add_argument(
        "--artifact-dir",
        required=True,
        metavar="DIR",
        help="root directory the campaign shards were run with",
    )
    merge.add_argument(
        "--key",
        default=None,
        metavar="CONTENT_KEY",
        help="content key of the campaign to merge (as printed by run)",
    )
    relog.add_log_level_argument(merge)

    report = commands.add_parser(
        "report", help="aggregate a campaign's journal into a report"
    )
    report.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec (JSON file or inline JSON); omit to auto-discover "
        "the campaign under --artifact-dir (or select one with --key)",
    )
    report.add_argument(
        "--artifact-dir",
        required=True,
        metavar="DIR",
        help="root directory the campaign was run with",
    )
    report.add_argument(
        "--key",
        default=None,
        metavar="CONTENT_KEY",
        help="content key of the campaign to report (as printed by run)",
    )
    report.add_argument(
        "--format",
        dest="report_format",
        choices=REPORT_FORMATS,
        default="table",
        help="output format (default: table)",
    )
    add_output_argument(report, "write the report to FILE instead of stdout")
    report.add_argument(
        "--timings",
        action="store_true",
        help="append a p50/p95 wall-clock timing table per scenario x method, "
        "aggregated from the campaign's *.metrics.jsonl sidecars "
        "(see `run --timings`)",
    )
    relog.add_log_level_argument(report)
    return parser


def resolve_run_spec(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> CampaignSpec:
    """The spec of a ``run`` invocation: positional reference XOR builder flags."""
    builder_used = [
        flag for flag in _BUILDER_FLAGS if getattr(args, flag, None) is not None
    ]
    if args.spec is not None:
        if builder_used:
            parser.error(
                "pass either a spec file/JSON or builder flags "
                f"(--{', --'.join(builder_used)}), not both"
            )
        return load_campaign(args.spec)
    return build_campaign(
        name=args.name or "campaign",
        description=args.description or "",
        scenarios=tuple(args.scenarios) if args.scenarios else ("paper-default",),
        methods=tuple(args.methods) if args.methods else ("static",),
        n_systems=args.systems if args.systems is not None else 1,
        utilisations=tuple(args.utilisations) if args.utilisations else (),
        replications=args.replications if args.replications is not None else 1,
        metrics=tuple(args.metrics) if args.metrics else CAMPAIGN_METRICS,
        execution_models=tuple(args.execution_models) if args.execution_models else (),
    )


def discover_campaign_spec(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> CampaignSpec:
    """The spec of a ``merge`` or ``report`` invocation: the positional
    reference, or the campaign found under ``--artifact-dir`` (``--key``
    selects one)."""
    root = Path(args.artifact_dir)
    try:
        if args.spec is not None:
            return load_campaign(args.spec)
        if args.key is not None:
            candidates = [root / args.key / CAMPAIGN_SPEC_FILENAME]
            if not candidates[0].exists():
                parser.error(f"no campaign with key {args.key!r} under {args.artifact_dir!r}")
        else:
            candidates = sorted(root.glob(f"*/{CAMPAIGN_SPEC_FILENAME}"))
            if not candidates:
                parser.error(f"no campaigns found under {args.artifact_dir!r}")
            if len(candidates) > 1:
                keys = ", ".join(path.parent.name for path in candidates)
                parser.error(
                    f"multiple campaigns under {args.artifact_dir!r} ({keys}); "
                    "select one with --key or pass the spec explicitly"
                )
        return load_campaign(str(candidates[0]))
    except (ValueError, KeyError) as error:
        parser.error(f"invalid campaign spec: {error}")


def render_report(report: CampaignReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "md":
        return report.to_markdown()
    return report.to_text()


def cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.resume and args.artifact_dir is None:
        parser.error("--resume requires --artifact-dir")
    if args.max_cells is not None and args.max_cells < 1:
        parser.error(f"--max-cells must be >= 1, got {args.max_cells}")
    if args.cache_dir is not None and args.cache_backend is not None:
        parser.error("pass either --cache-dir or --cache-backend, not both")
    if args.timings and args.artifact_dir is None:
        parser.error("--timings requires --artifact-dir (the sidecar's home)")
    shard = None
    if args.shard is not None:
        try:
            shard = parse_shard(args.shard)
        except ValueError as error:
            parser.error(f"--shard: {error}")
        if args.artifact_dir is None:
            parser.error("--shard requires --artifact-dir (the merge point)")
    validate_methods(parser, args.methods)
    validate_execution_models(parser, args.execution_models)
    try:
        spec = resolve_run_spec(parser, args)
    except (ValueError, KeyError) as error:
        parser.error(f"invalid campaign spec: {error}")

    service = simulation = None
    if args.server is not None:
        if args.workers != 1:
            parser.error("--workers is the daemon's setting; drop it with --server")
        if args.cache_dir is not None:
            parser.error("--cache-dir is the daemon's setting; drop it with --server")
        if args.cache_backend is not None:
            parser.error(
                "--cache-backend is the daemon's setting; drop it with --server"
            )
        from repro.server import (
            RemoteSchedulingService,
            RemoteSimulationService,
            parse_address,
        )

        try:
            host, port = parse_address(args.server)
        except ValueError as error:
            parser.error(f"--server: {error}")
        try:
            service = RemoteSchedulingService(host, port)
            if spec.runtime is not None:
                simulation = RemoteSimulationService(host, port)
        except OSError as error:
            parser.error(f"--server: cannot reach {args.server}: {error}")

    try:
        with CampaignRunner(
            spec,
            artifact_dir=args.artifact_dir,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            cache_backend=args.cache_backend,
            shard=shard,
            service=service,
            simulation=simulation,
            timings=args.timings,
        ) as runner:
            if runner.completed_cells and not args.resume:
                parser.error(
                    f"campaign {spec.name!r} ({spec.content_key()}) already has "
                    f"{runner.completed_cells} completed cell(s) under "
                    f"{args.artifact_dir!r}; pass --resume to continue it"
                )
            result = runner.run(max_cells=args.max_cells)
            if args.metrics_out is not None:
                write_runner_metrics(args.metrics_out, runner)
    finally:
        if simulation is not None:
            simulation.close()
        if service is not None:
            service.close()

    done = f"{len(result.records)}/{result.expected_cells} cells done"
    if spec.runtime is not None:
        done += (
            f", {len(result.runtime_records)}/{result.expected_runtime_cells} runtime cells done"
        )
    label = f"campaign {spec.name!r} ({spec.content_key()})"
    if shard is not None:
        label += f" shard {shard[0]}/{shard[1]}"
    print(
        f"{label}: {result.evaluated} evaluated, {result.resumed} resumed, {done}",
        file=sys.stderr,
    )
    if not result.complete:
        print(
            "campaign incomplete; re-run with --resume to finish it",
            file=sys.stderr,
        )
    if args.report_format == "none":
        return 0
    if shard is None:
        write_output(render_report(result.report(), args.report_format), args.output)
    elif result.merged_journal is not None:
        # All shards done: report the full merged campaign, not our slice.
        print(f"merged shard journals into {result.merged_journal}", file=sys.stderr)
        records, runtime_records = load_campaign_records(args.artifact_dir, spec)
        report = CampaignReport.from_records(
            spec, records, runtime_records=runtime_records
        )
        write_output(render_report(report, args.report_format), args.output)
    else:
        print(
            "other shards still pending; once they finish, the journals merge "
            "automatically (or run `python -m repro.campaign merge`)",
            file=sys.stderr,
        )
    return 0


def cmd_merge(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = discover_campaign_spec(parser, args)

    directory = Path(args.artifact_dir) / spec.content_key()
    try:
        target = merge_shard_journals(directory, spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"merged shard journals of campaign {spec.name!r} "
        f"({spec.content_key()}) into {target}",
        file=sys.stderr,
    )
    return 0


def cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    spec = discover_campaign_spec(parser, args)

    records, runtime_records = load_campaign_records(args.artifact_dir, spec)
    report = CampaignReport.from_records(spec, records, runtime_records=runtime_records)
    if not report.complete:
        print(
            f"warning: report covers {report.n_cells_aggregated}/"
            f"{report.n_cells_expected} cells; run with --resume to finish "
            "the campaign",
            file=sys.stderr,
        )
    text = render_report(report, args.report_format)
    if args.timings:
        directory = Path(args.artifact_dir) / spec.content_key()
        table = format_timings_table(read_timing_entries(directory))
        text += f"\nper-cell wall-clock timings (computed cells):\n{table}\n"
    write_output(text, args.output)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relog.configure_from_args(args)

    if args.list or args.list_scenarios or args.list_methods or args.list_execution_models:
        sections: List[str] = []
        if args.list or args.list_scenarios:
            sections.append("scenario presets (name, content key, description):")
            sections.append(format_scenario_listing())
        if args.list or args.list_methods:
            sections.append("scheduling methods:")
            sections.append(format_scheduler_listing())
        if args.list or args.list_execution_models:
            sections.append("run-time execution models:")
            sections.append(format_execution_model_listing())
        print("\n".join(sections))
        return 0

    if args.command == "run":
        return cmd_run(parser, args)
    if args.command == "merge":
        return cmd_merge(parser, args)
    if args.command == "report":
        return cmd_report(parser, args)
    parser.error("a subcommand is required (run, merge, report) — or --list")
    return 2  # pragma: no cover — parser.error raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
