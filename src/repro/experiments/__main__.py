"""CLI entry point for the experiment harness: ``python -m repro.experiments``.

Examples::

    # Reduced-scale Figure 5 on four workers, with a resumable artifact cache
    python -m repro.experiments fig5 --scale quick --workers 4 --artifact-dir artifacts/

    # The paper's full evaluation (hours of compute); interrupt and re-launch
    # with the same command line to resume from the cached cells
    python -m repro.experiments all --scale paper --workers 8 --artifact-dir artifacts/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core import logging as relog
from repro.core.profiling import maybe_profile
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.experiments.fig6_psi import run_fig6
from repro.experiments.fig7_upsilon import run_fig7
from repro.experiments.table1_resources import run_table1
from repro.scenario import create_scenario
from repro.service.batch_cli import (
    add_listing_arguments,
    add_metrics_out_argument,
    add_profile_argument,
    print_listings,
    validate_methods,
    write_metrics,
    write_runner_metrics,
)

FIGURES = ("fig5", "fig6", "fig7", "table1", "all")

_SCALES = {
    "smoke": ExperimentConfig.smoke,
    "quick": ExperimentConfig.quick,
    "paper": ExperimentConfig.paper_scale,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    parser.add_argument(
        "figure",
        nargs="?",
        choices=FIGURES,
        help="which figure/table to regenerate ('all' runs everything; "
        "fig6 and fig7 share one accuracy sweep)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="experiment scale preset (default: quick)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the evaluation engine (default: 1)",
    )
    parser.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="directory for persistent sweep artifacts and the resumable "
        "cell cache (omit to keep everything in memory)",
    )
    parser.add_argument(
        "--no-ga",
        action="store_true",
        help="skip the GA method (it dominates the run time)",
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="run only these schedulers in the sweeps; each entry is a "
        "registered name or a spec string such as 'ga:generations=10' "
        "(default: every method of the figure)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_JSON",
        help="evaluate a declarative scenario instead of the default workload; "
        "a registered preset name (see --list-scenarios) or inline "
        "repro/scenario JSON",
    )
    parser.add_argument(
        "--campaign",
        default=None,
        metavar="SPEC_OR_FILE",
        help="run a declarative campaign (a repro/campaign JSON file or inline "
        "JSON) instead of a figure, honouring --workers and --artifact-dir, "
        "and print its Markdown report; see `python -m repro.campaign` for "
        "the full campaign CLI (resume, report formats)",
    )
    add_profile_argument(parser)
    add_listing_arguments(parser)
    add_metrics_out_argument(parser)
    relog.add_log_level_argument(parser)
    return parser


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    config = _SCALES[args.scale]()
    overrides = {"n_workers": args.workers, "artifact_dir": args.artifact_dir}
    if args.no_ga:
        overrides["include_ga"] = False
    if args.scenario is not None:
        overrides["scenario"] = create_scenario(args.scenario)
    return config.with_overrides(**overrides)


def run_campaign_cli(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``--campaign``: run a campaign grid and print its Markdown report.

    Resumes automatically from ``--artifact-dir`` (the campaign CLI's
    ``--resume`` semantics are deliberate there; this cross-link favours
    convenience) and reuses ``--workers`` for the scheduling service.
    """
    from repro.campaign import CampaignRunner, load_campaign

    try:
        spec = load_campaign(args.campaign)
    except (ValueError, KeyError) as error:
        parser.error(f"--campaign: {error}")
    with CampaignRunner(
        spec, artifact_dir=args.artifact_dir, n_workers=args.workers
    ) as runner:
        result = runner.run()
        if args.metrics_out is not None:
            write_runner_metrics(args.metrics_out, runner)
    print(
        f"campaign {spec.name!r} ({spec.content_key()}): "
        f"{result.evaluated} evaluated, {result.resumed} resumed",
        file=sys.stderr,
    )
    print(result.report().to_markdown())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relog.configure_from_args(args)
    if print_listings(args):
        return 0
    if args.campaign is not None:
        if args.figure is not None:
            parser.error("--campaign replaces the figure argument; pass one or the other")
        if args.scenario is not None:
            parser.error("--campaign carries its own scenarios; --scenario does not apply")
        if args.methods is not None:
            parser.error("--campaign carries its own methods; --methods does not apply")
        if args.no_ga:
            parser.error(
                "--no-ga does not apply to --campaign; drop GA methods from the spec"
            )
        with maybe_profile(args.profile):
            return run_campaign_cli(parser, args)
    if args.figure is None:
        parser.error("a figure is required (or use --list-methods/--list-scenarios)")
    try:
        config = make_config(args)
    except (ValueError, KeyError) as error:
        parser.error(str(error))
    methods = validate_methods(parser, args.methods)
    if methods is not None and args.figure == "table1":
        parser.error("--methods does not apply to table1 (it has no method sweep)")

    wants = (args.figure,) if args.figure != "all" else ("fig5", "fig6", "fig7", "table1")

    with maybe_profile(args.profile):
        return _run_figures(args, config, methods, wants)


def _run_figures(args, config, methods, wants) -> int:
    if "table1" in wants:
        if methods is not None:
            print(
                "note: --methods does not apply to table1; "
                "regenerating the full table",
                file=sys.stderr,
            )
        artifact_path = (
            Path(args.artifact_dir) / "table1.json" if args.artifact_dir else None
        )
        run_table1(verbose=True, artifact_path=artifact_path)
        print()

    needs_engine = any(figure in wants for figure in ("fig5", "fig6", "fig7"))
    # A table1-only run uses no engine and writes an empty exposition.
    metrics_snapshot = {}
    if needs_engine:
        with ExperimentEngine(config) as engine:
            if "fig5" in wants:
                result = engine.schedulability_sweep(methods=methods)
                print("Figure 5 — fraction of schedulable systems")
                print(result.to_table())
                print()
            if "fig6" in wants or "fig7" in wants:
                accuracy = engine.accuracy_sweep(methods=methods)
                if "fig6" in wants:
                    run_fig6(config, verbose=True, precomputed=accuracy)
                    print()
                if "fig7" in wants:
                    run_fig7(config, verbose=True, precomputed=accuracy)
                    print()
            metrics_snapshot = engine.metrics()

    if args.metrics_out is not None:
        write_metrics(args.metrics_out, metrics_snapshot)

    if args.artifact_dir:
        print(f"artifacts written under {args.artifact_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
