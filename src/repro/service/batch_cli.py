"""The JSONL batch loop behind ``python -m repro.service``,
``python -m repro.runtime`` and ``python -m repro.server request``.

Each of the three CLIs reads request envelopes — one versioned JSON payload
per line, from a file or stdin, or derived from a declarative source such as
``--scenario`` — answers them as one batch, writes one response envelope per
line, in request order, to stdout or ``-o``, and prints a summary line on
stderr.  :class:`BatchCli` is that loop.  A CLI supplies its request class,
its own flags and how it builds its service or client.

A line that cannot be read as a request stops the CLI before anything runs,
with ``source:line: invalid request: …`` on stderr and exit status 1.

The module also holds what ``python -m repro.experiments`` and
``python -m repro.campaign`` share with the batch CLIs: the ``--list-*``,
``--profile`` and ``--metrics-out`` flags and the metrics writers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.core import logging as relog
from repro.core.profiling import DEFAULT_PROFILE_PATH
from repro.scenario import create_scenario, format_scenario_listing
from repro.scheduling import format_scheduler_listing
from repro.service.core import distinct_registries
from repro.service.messages import CACHE_HIT, ScheduleRequest
from repro.service.spec import SchedulerSpec


def _execution_model_listing() -> str:
    from repro.runtime import format_execution_model_listing

    return format_execution_model_listing()


#: ``--list-NAME`` flag -> (help, listing).
LISTINGS: Dict[str, Tuple[str, Callable[[], str]]] = {
    "methods": ("list the registered scheduling methods and exit", format_scheduler_listing),
    "scenarios": ("list the registered scenario presets and exit", format_scenario_listing),
    "execution-models": (
        "list the registered run-time execution models and exit",
        _execution_model_listing,
    ),
}
LISTING_ORDER = ("methods", "scenarios", "execution-models")


def add_listing_arguments(
    parser: argparse.ArgumentParser, order: Sequence[str] = LISTING_ORDER
) -> None:
    for name in order:
        parser.add_argument(f"--list-{name}", action="store_true", help=LISTINGS[name][0])


def print_listings(args: argparse.Namespace, order: Sequence[str] = LISTING_ORDER) -> bool:
    """Print the listings ``args`` asks for, in ``order``; whether it asked."""
    wanted = [name for name in order if getattr(args, "list_" + name.replace("-", "_"))]
    for name in wanted:
        print(LISTINGS[name][1]())
    return bool(wanted)


def add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        nargs="?",
        const=DEFAULT_PROFILE_PATH,
        default=None,
        metavar="PSTATS",
        help="run under cProfile: dump raw stats to PSTATS (default: "
        f"{DEFAULT_PROFILE_PATH}) and print the top-20 cumulative summary "
        "to stderr",
    )


def add_metrics_out_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metrics (Prometheus text exposition: request "
        "counters, cache ops, per-phase latency histograms) to FILE",
    )


def write_metrics(path: str, snapshot: Dict[str, Any]) -> None:
    from repro.obs import write_metrics_file

    write_metrics_file(path, snapshot)
    relog.info("metrics-written", path=path)


def write_runner_metrics(path: str, runner: Any) -> None:
    """Write a campaign runner's service metrics as Prometheus text exposition.

    Remote services (``--server``) proxy to the daemon and carry no local
    registries — scrape the daemon's ``metrics`` op for those instead.
    """
    from repro.obs import merge_snapshots

    registries = [
        registry
        for service in (runner.simulation, runner.service)
        for registry in getattr(service, "metrics_registries", list)()
    ]
    write_metrics(
        path, merge_snapshots([registry.snapshot() for registry in distinct_registries(registries)])
    )


def add_output_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument("-o", "--output", default=None, metavar="FILE", help=help_text)


def write_output(text: str, output: Optional[str]) -> None:
    """Write ``text`` to the file ``output``, or to stdout when it is ``None``."""
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def format_cache_stats(label: str, stats: dict) -> str:
    """One stderr line of a service's cache counters (``--verbose`` mode)."""
    if "cache_entries" not in stats:
        return f"{label}: disabled"
    line = (
        f"{label}: {stats['cache_entries']} entries, "
        f"{stats['cache_hits']} hits, {stats['cache_misses']} misses, "
        f"{stats['cache_stores']} stores"
    )
    backend = stats.get("cache_backend")
    if isinstance(backend, dict) and backend.get("name"):
        location = backend.get("location")
        where = f" at {location}" if location else ""
        line += f" [backend: {backend['name']}{where}]"
    return line


def format_memo_stats(metrics_snapshot: dict) -> str:
    """One stderr line of per-worker memo-cache counters (``--verbose`` mode).

    Reads the ``repro_memo_ops_total`` samples of a merged metrics snapshot;
    pool workers drain their process-local memo deltas into the registry
    snapshots they ship back, so the totals cover the dispatching process and
    every worker alike.
    """
    from repro.obs.metrics import MEMO_OPS_TOTAL

    family = metrics_snapshot.get("families", {}).get(MEMO_OPS_TOTAL, {})
    per_memo: dict = {}
    for sample in family.get("samples", []):
        labels = sample.get("labels", {})
        ops = per_memo.setdefault(str(labels.get("memo", "?")), {})
        op = str(labels.get("op", "?"))
        ops[op] = ops.get(op, 0) + int(sample.get("value", 0))
    if not per_memo:
        return "memo caches: (no activity)"
    parts = []
    for name in sorted(per_memo):
        ops = per_memo[name]
        part = f"{name} {ops.get('hit', 0)} hits / {ops.get('miss', 0)} misses"
        if ops.get("evict"):
            part += f" / {ops['evict']} evictions"
        parts.append(part)
    return "memo caches: " + ", ".join(parts)


def scenario_requests(
    scenario_ref: str, methods: Sequence[str], n_systems: int
) -> List[ScheduleRequest]:
    """The schedule requests of ``--scenario`` mode: every system x method."""
    scenario = create_scenario(scenario_ref)
    requests = []
    for system_index in range(n_systems):
        for method in methods:
            spec = SchedulerSpec.parse(method)
            requests.append(
                ScheduleRequest(
                    scenario=scenario,
                    system_index=system_index,
                    spec=spec,
                    request_id=f"{scenario.name}/{system_index}/{spec}",
                )
            )
    return requests


def read_requests(handle: TextIO, *, source: str, parse: Callable[[Any], Any]) -> List[Any]:
    """``parse`` each non-blank JSON line; a bad line exits naming ``source:line``."""
    requests: List[Any] = []
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(parse(json.loads(line)))
        except (ValueError, KeyError, TypeError) as error:
            raise SystemExit(f"{source}:{line_number}: invalid request: {error}")
    return requests


def add_service_arguments(
    parser: argparse.ArgumentParser, *, workers: str, cache_dir: str, cache_backend: str
) -> None:
    """``--workers``, ``--cache-dir`` and ``--cache-backend``, with their help texts."""
    parser.add_argument("--workers", type=int, default=1, metavar="N", help=workers)
    parser.add_argument("--cache-dir", default=None, metavar="DIR", help=cache_dir)
    parser.add_argument("--cache-backend", default=None, metavar="SPEC", help=cache_backend)


def open_service(parser: argparse.ArgumentParser, factory: Callable[..., Any], **options: Any):
    """``factory(**options)``; a bad ``--cache-backend`` spec is a usage error."""
    try:
        return factory(**options)
    except ValueError as error:
        parser.error(f"--cache-backend: {error}")


@dataclass
class BatchResult:
    """A batch's answers, as :meth:`BatchCli.execute` hands them to the loop."""

    #: Response envelopes, in request order.
    answers: List[Dict[str, Any]]
    #: How many answers the batch computed (in-batch duplicates count once).
    computed: int
    #: ``(label, stats)`` of each cache, for ``--verbose``.
    caches: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)


class BatchCli:
    """One JSONL batch CLI: request lines in, response lines out.

    A subclass names its :attr:`request_cls` and builds its service in
    :meth:`open`; it may add flags (:meth:`add_own_arguments`) and
    declarative request sources (:attr:`sources`, :meth:`derive`).  A CLI
    that is not :attr:`local` answers through something other than its own
    service: it overrides :meth:`parse` and :meth:`execute`, and takes no
    ``--workers``, cache, ``--verbose``, ``--metrics-out`` or ``--list-*``
    flags.
    """

    prog: str
    description: str
    request_cls: Any = None
    #: The request envelope kinds an input line may hold (for ``--help``).
    request_kinds: str
    #: Declarative request sources besides the input file, as option dests.
    sources: Tuple[str, ...] = ("scenario",)
    #: What the summary line calls a computed response.
    computed_word = "computed"
    local = True
    listing_order: Sequence[str] = LISTING_ORDER
    cache_dir_help = ""
    cache_backend_help = ""

    # -- hooks -------------------------------------------------------------------

    def add_own_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Flags of this CLI alone."""

    def parse(self, payload: Any) -> Any:
        """One input line's JSON value as a request."""
        return self.request_cls.from_dict(payload)

    def derive(self, source: str, args: argparse.Namespace) -> List[Any]:
        """The requests of the declarative source ``source``."""
        raise NotImplementedError

    def open(self, parser: argparse.ArgumentParser, args: argparse.Namespace) -> Any:
        """The service that answers the batch (a context manager)."""
        raise NotImplementedError

    def caches(self, service: Any) -> List[Tuple[str, Dict[str, Any]]]:
        """``(label, stats)`` of each of the service's caches; ``computed`` is
        read from the first."""
        return [("schedule cache", service.stats())]

    def execute(
        self, parser: argparse.ArgumentParser, args: argparse.Namespace, requests: List[Any]
    ) -> BatchResult:
        """Answer the batch with the service :meth:`open` builds."""
        with self.open(parser, args) as service:
            responses = service.submit_batch(requests)
            caches = self.caches(service)
            return BatchResult(
                [response.to_dict() for response in responses],
                caches[0][1]["computed"],
                caches,
                service.metrics(),
            )

    # -- the loop ----------------------------------------------------------------

    def main(self, argv: Optional[Sequence[str]] = None) -> int:
        parser = self.build_parser()
        args = parser.parse_args(argv)
        relog.configure_from_args(args)
        return self.run(parser, args)

    def build_parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(prog=self.prog, description=self.description)
        self.add_arguments(parser)
        return parser

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "input",
            nargs="?",
            default=None,
            help=f"request JSONL file ('-' reads stdin); one versioned {self.request_kinds} "
            "payload per line.  Omit when using --scenario",
        )
        parser.add_argument(
            "--scenario",
            default=None,
            metavar="NAME_OR_JSON",
            help="generate the request batch from a scenario (a registered preset "
            "name or inline repro/scenario JSON) instead of reading a request file",
        )
        parser.add_argument(
            "--systems",
            type=int,
            default=1,
            metavar="N",
            help="with --scenario: system indices 0..N-1 (default: 1)",
        )
        parser.add_argument(
            "--methods",
            nargs="+",
            default=["static"],
            metavar="SPEC",
            help="with --scenario: scheduler spec strings per system (default: static)",
        )
        self.add_own_arguments(parser)
        add_output_argument(parser, "response JSONL file (default: stdout)")
        if self.local:
            add_listing_arguments(parser, self.listing_order)
            add_service_arguments(
                parser,
                workers="worker processes for the batch (default: 1); responses are "
                "bit-identical at any worker count",
                cache_dir=self.cache_dir_help,
                cache_backend=self.cache_backend_help,
            )
            parser.add_argument(
                "-v",
                "--verbose",
                action="store_true",
                help="also print each cache's lifetime counters "
                "(entries/hits/misses/stores) and the per-worker memo-cache "
                "hit/miss counters to stderr after the batch",
            )
            add_metrics_out_argument(parser)
        relog.add_log_level_argument(parser)

    def run(self, parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
        if self.local:
            if print_listings(args, self.listing_order):
                return 0
            if args.workers < 1:
                parser.error(f"--workers must be >= 1, got {args.workers}")
        given = [args.input, *(getattr(args, source) for source in self.sources)]
        if sum(value is not None for value in given) != 1:
            names = ["an input file", *(f"--{source}" for source in self.sources)]
            parser.error(f"provide exactly one of {', '.join(names[:-1])} and {names[-1]}")
        if args.systems < 1:
            parser.error(f"--systems must be >= 1, got {args.systems}")
        requests = self._load(parser, args)
        if self.local and args.cache_dir is not None and args.cache_backend is not None:
            parser.error("pass either --cache-dir or --cache-backend, not both")

        result = self.execute(parser, args, requests)
        write_output(
            "".join(json.dumps(answer, sort_keys=True) + "\n" for answer in result.answers),
            args.output,
        )
        hits = sum(1 for answer in result.answers if answer["data"]["cache"]["status"] == CACHE_HIT)
        print(
            f"{len(result.answers)} response(s): {result.computed} {self.computed_word}, "
            f"{hits} served from cache",
            file=sys.stderr,
        )
        if self.local and args.verbose:
            for label, stats in result.caches:
                print(format_cache_stats(label, stats), file=sys.stderr)
            print(format_memo_stats(result.metrics), file=sys.stderr)
        if self.local and args.metrics_out is not None:
            write_metrics(args.metrics_out, result.metrics)
        return 0

    def _load(self, parser: argparse.ArgumentParser, args: argparse.Namespace) -> List[Any]:
        for source in self.sources:
            if getattr(args, source) is not None:
                try:
                    return self.derive(source, args)
                except (ValueError, KeyError) as error:
                    parser.error(f"--{source}: {error}")
        if args.input == "-":
            return read_requests(sys.stdin, source="<stdin>", parse=self.parse)
        with open(args.input, "r", encoding="utf-8") as handle:
            return read_requests(handle, source=args.input, parse=self.parse)
