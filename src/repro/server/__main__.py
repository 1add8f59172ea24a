"""CLI of the serving daemon: ``python -m repro.server``.

``serve`` runs the daemon in the foreground until it is told to stop (the
wire-level ``shutdown`` op, SIGINT or SIGTERM — all drain gracefully)::

    python -m repro.server serve --port 7341 --workers 4 --cache-dir cache/

``request`` is the batch CLIs' exact JSONL contract, routed through a running
daemon instead of a private pool: request envelopes in (schedule and sim
requests may be mixed), response envelopes out, in input order — plus the
same declarative ``--scenario`` mode as ``python -m repro.service``.  It runs
the batch CLIs' loop (:class:`repro.service.batch_cli.BatchCli`), so a line
whose kind the client cannot route stops it before anything is sent, with
``source:line: invalid request: …``; an error answer from the daemon, or no
daemon at the address, ends it with one stderr line and exit status 1::

    python -m repro.server request --server 127.0.0.1:7341 requests.jsonl -o out.jsonl
    python -m repro.server request --server 127.0.0.1:7341 \
        --scenario faulty-controller --systems 3 --methods static gpiocp

``stats``, ``health``, ``metrics`` and ``shutdown`` are one-shot ops against
a daemon (``metrics`` prints Prometheus text exposition, the rest JSON)::

    python -m repro.server stats --server 127.0.0.1:7341
    python -m repro.server metrics --server 127.0.0.1:7341
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.core import logging as relog
from repro.server.client import ServerClient, ServerError, op_for_envelope, parse_address
from repro.server.daemon import DEFAULT_HOST, ReproServer
from repro.server.dispatcher import DEFAULT_MAX_QUEUE
from repro.server.protocol import DEFAULT_MAX_LINE_BYTES
from repro.service.batch_cli import (
    BatchCli,
    BatchResult,
    add_service_arguments,
    open_service,
    scenario_requests,
    write_metrics,
)

DEFAULT_PORT = 7341


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Persistent scheduling/simulation server and its clients.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the daemon in the foreground until shut down"
    )
    serve.add_argument("--host", default=DEFAULT_HOST, help=f"bind address (default: {DEFAULT_HOST})")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"listen port; 0 binds an ephemeral port (default: {DEFAULT_PORT})",
    )
    add_service_arguments(
        serve,
        workers="worker processes shared by scheduling and simulation (default: 1)",
        cache_dir="persistent cache root, in the batch CLIs' layout (schedules/ "
        "and sim-responses/ beneath it); omit to cache in memory only",
        cache_backend="storage backend for the persistent caches, as a 'name:key=value' "
        "spec string — e.g. 'sqlite:path=cache.db' holds both caches in one "
        "file (see `python -m repro.store --list-backends`).  Conflicts with "
        "--cache-dir",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        metavar="N",
        help="admission bound: computations queued or running before requests "
        f"are rejected with retry-after (default: {DEFAULT_MAX_QUEUE})",
    )
    serve.add_argument(
        "--max-line-bytes",
        type=int,
        default=DEFAULT_MAX_LINE_BYTES,
        metavar="N",
        help=f"wire-protocol per-line limit (default: {DEFAULT_MAX_LINE_BYTES})",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the bound port to FILE once listening (handy with --port 0)",
    )
    serve.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="ignore the wire-level shutdown op (signals still work)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the final metrics (Prometheus text exposition) to FILE "
        "when the daemon stops",
    )
    relog.add_log_level_argument(serve, default="info")

    request = commands.add_parser(
        "request",
        help="send a JSONL request batch through a running daemon "
        "(the batch CLIs' envelope format, schedule and sim requests mixed)",
    )
    _add_server_argument(request)
    REQUEST_CLI.add_arguments(request)

    for name, help_text in (
        ("stats", "print a running daemon's live statistics as JSON"),
        ("health", "print a running daemon's health summary as JSON"),
        ("metrics", "print a running daemon's metrics as Prometheus text"),
        ("shutdown", "ask a running daemon to drain and exit"),
    ):
        command = commands.add_parser(name, help=help_text)
        _add_server_argument(command)
        relog.add_log_level_argument(command)
    return parser


def _add_server_argument(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--server",
        default=f"{DEFAULT_HOST}:{DEFAULT_PORT}",
        metavar="HOST:PORT",
        help=f"daemon address (default: {DEFAULT_HOST}:{DEFAULT_PORT})",
    )


def serve_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.cache_dir is not None and args.cache_backend is not None:
        parser.error("pass either --cache-dir or --cache-backend, not both")
    server = open_service(
        parser,
        ReproServer,
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        cache_backend=args.cache_backend,
        max_queue=args.max_queue,
        max_line_bytes=args.max_line_bytes,
        allow_remote_shutdown=not args.no_remote_shutdown,
        port_file=args.port_file,
    )

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signal_number, server.request_shutdown)
        await server.start()
        relog.info(
            "server-started",
            host=server.host,
            port=server.port,
            workers=args.workers,
            cache=args.cache_backend or args.cache_dir or "memory",
        )
        await server.run()

    asyncio.run(run())
    if args.metrics_out is not None:
        write_metrics(args.metrics_out, server.metrics_snapshot())
    relog.info("server-stopped")
    return 0


class RequestBatchCli(BatchCli):
    """``request``: the batch CLIs' loop, answered by a running daemon."""

    request_kinds = "repro/schedule-request or repro/sim-request"
    local = False

    def add_own_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--window",
            type=int,
            default=32,
            metavar="N",
            help="requests kept in flight on the connection (default: 32)",
        )

    def parse(self, payload: Any) -> Dict[str, Any]:
        """Lines travel as read; only their kind must name an op."""
        op_for_envelope(payload)
        return payload

    def derive(self, source: str, args: argparse.Namespace) -> List[Dict[str, Any]]:
        requests = scenario_requests(args.scenario, args.methods, args.systems)
        return [request.to_dict() for request in requests]

    def execute(self, parser, args, envelopes) -> BatchResult:
        host, port = parse_address(args.server)
        try:
            with ServerClient(host, port, window=args.window) as client:
                answers = client.submit_envelopes(envelopes)
        except (ServerError, OSError) as error:
            raise SystemExit(f"{args.server}: {error}")
        statuses = [answer["data"]["cache"]["status"] for answer in answers]
        return BatchResult(answers, sum(1 for status in statuses if status != "hit"))


REQUEST_CLI = RequestBatchCli()


def one_shot_main(args: argparse.Namespace) -> int:
    host, port = parse_address(args.server)
    with ServerClient(host, port) as client:
        payload = client.call(args.command)
    if args.command == "metrics":
        # The payload wraps Prometheus text exposition; print it raw so the
        # output pipes straight into scrape tooling.
        sys.stdout.write(payload["text"])
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relog.configure_from_args(args)
    if args.command == "serve":
        return serve_main(args, parser)
    try:
        parse_address(args.server)
    except ValueError as error:
        parser.error(f"--server: {error}")
    if args.command == "request":
        return REQUEST_CLI.run(parser, args)
    return one_shot_main(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
