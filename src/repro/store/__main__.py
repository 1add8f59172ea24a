"""Cache-store maintenance CLI: ``python -m repro.store``.

Inspects and maintains any cache backend through its spec string::

    # What lives in this cache, and how big is it?
    python -m repro.store stats sqlite:path=cache.db

    # Every stored content key (first 20)
    python -m repro.store ls directory:root=my-cache --limit 20

    # Drop corrupt (unreadable) entries
    python -m repro.store prune my-cache

    # Upgrade a grown file-per-key directory into one SQLite file
    python -m repro.store migrate directory:root=my-cache sqlite:path=cache.db

Bare paths work everywhere a spec does: ``cache.db`` means
``sqlite:path=cache.db``, any other path means ``directory:root=...``.
Note that a bare spec opens the location *as given* — unlike the services'
``--cache-backend``, no ``schedules``/``sim-responses`` namespace is
appended, so point ``directory:root=`` at the actual entry directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.cli import reader_may_leave
from repro.store.backends import CacheBackend
from repro.store.migrate import migrate_backend
from repro.store.registry import create_backend, format_backend_listing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect, prune and migrate cache storage backends.",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered storage backends and exit",
    )
    commands = parser.add_subparsers(dest="command")

    stats = commands.add_parser(
        "stats", help="entry counts, size and per-kind breakdown of a backend"
    )
    stats.add_argument("spec", help="backend spec string (or bare path)")

    ls = commands.add_parser("ls", help="list the stored content keys")
    ls.add_argument("spec", help="backend spec string (or bare path)")
    ls.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="print at most N keys (default: all)",
    )

    prune = commands.add_parser(
        "prune", help="delete corrupt entries (default) or the listed keys"
    )
    prune.add_argument("spec", help="backend spec string (or bare path)")
    prune.add_argument(
        "--keys",
        nargs="+",
        default=None,
        metavar="KEY",
        help="delete exactly these keys instead of scanning for corrupt entries",
    )

    migrate = commands.add_parser(
        "migrate",
        help="copy every entry of SRC into DST (idempotent, verified count)",
    )
    migrate.add_argument("source", help="source backend spec string (or bare path)")
    migrate.add_argument(
        "destination", help="destination backend spec string (or bare path)"
    )
    return parser


def _open(parser: argparse.ArgumentParser, spec: str) -> CacheBackend:
    try:
        return create_backend(spec)
    except ValueError as error:
        parser.error(str(error))
        raise AssertionError("unreachable")  # pragma: no cover


def cmd_stats(backend: CacheBackend) -> int:
    stats = backend.stats()
    stats["kinds"] = backend.kind_counts()
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def cmd_ls(backend: CacheBackend, limit: Optional[int]) -> int:
    keys = backend.keys()
    shown = keys if limit is None else keys[:limit]
    for key in shown:
        print(key)
    if limit is not None and len(keys) > limit:
        print(f"... and {len(keys) - limit} more", file=sys.stderr)
    return 0


def cmd_prune(backend: CacheBackend, keys: Optional[Sequence[str]]) -> int:
    removed = backend.prune(keys)
    what = "listed" if keys is not None else "corrupt"
    print(f"pruned {removed} {what} entr{'y' if removed == 1 else 'ies'}", file=sys.stderr)
    return 0


def cmd_migrate(source: CacheBackend, destination: CacheBackend) -> int:
    result = migrate_backend(source, destination)
    print(
        f"migrated {result.copied} entr{'y' if result.copied == 1 else 'ies'} "
        f"({result.skipped} already present, {result.corrupt} corrupt skipped); "
        f"{result.verified}/{result.copied + result.skipped} verified readable "
        "at the destination",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_backends:
        print(format_backend_listing())
        return 0
    if args.command is None:
        parser.error("provide a command (stats/ls/prune/migrate) or --list-backends")
    if args.command == "migrate":
        with _open(parser, args.source) as source:
            with _open(parser, args.destination) as destination:
                try:
                    return cmd_migrate(source, destination)
                except RuntimeError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
    with _open(parser, args.spec) as backend:
        if args.command == "stats":
            with reader_may_leave():
                return cmd_stats(backend)
        if args.command == "ls":
            with reader_may_leave():
                return cmd_ls(backend, args.limit)
        if args.command == "prune":
            return cmd_prune(backend, args.keys)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
