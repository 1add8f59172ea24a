"""Cache storage backends: where content-addressed payloads physically live.

A :class:`CacheBackend` is the persistence half of the content-addressed
caches (:class:`repro.service.cache.ScheduleCache` and its subclasses): a flat
``key -> versioned JSON payload`` store with first-write-wins semantics.  The
caches keep everything *about* the payloads — the in-memory layer, hit/miss
accounting, the ``{kind, version, data}`` envelope and its version
protection — so a backend never needs to understand what it stores; it only
has to persist dicts durably and tolerate concurrent writers.

Two implementations ship:

:class:`DirectoryBackend`
    One JSON file per key (``<root>/<key>.json``, written atomically via
    rename) — the historical cache layout, trivially inspectable, safe for
    concurrent processes, but bounded by what the filesystem tolerates as a
    directory grows to millions of entries.

:class:`SqliteBackend`
    One SQLite file in WAL mode: a single writer at a time (enforced by
    SQLite's own write lock; concurrent writers queue on ``busy_timeout``)
    with any number of concurrent readers — including readers in other
    processes, e.g. shard workers of one campaign sharing one cache file.
    Entries carry their payload ``kind`` in an indexed column, so one file
    can hold the schedule *and* the simulation cache without either misreading
    the other, and ``python -m repro.store`` can answer per-kind questions
    with one query.

Backends are constructed from ``name:key=value`` spec strings through
:func:`repro.store.registry.create_backend`; :meth:`CacheBackend.spec`
returns the canonical string that re-opens the same store (this is how pool
workers re-attach to the cache of the dispatching service).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.serialization import atomic_write_json, canonical_json

#: Subdirectories of a shared cache root holding the two content-addressed
#: caches.  Every consumer — the batch CLIs, the serving daemon, campaign
#: shard workers — agrees on this layout, so they all warm each other through
#: the same ``--cache-dir``/``--cache-backend``.  The SQLite backend ignores
#: the split: one file holds both caches, told apart by the ``kind`` column.
SCHEDULE_CACHE_SUBDIR = "schedules"
SIM_CACHE_SUBDIR = "sim-responses"


class CacheBackend(ABC):
    """A flat ``key -> versioned JSON payload`` store (see the module docs).

    Keys are content hashes (hex strings); payloads are the caches'
    ``{kind, version, data}`` envelopes.  All methods are safe to call from
    multiple threads of one process, and the on-disk form tolerates multiple
    processes sharing one store (every writer of a given key holds an
    identical, content-addressed payload).
    """

    #: Registry name of this backend (``directory``, ``sqlite``, ...).
    name: str = "abstract"

    # -- the core key/value surface ----------------------------------------------

    @abstractmethod
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` (missing *or* corrupt)."""

    @abstractmethod
    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (idempotent: first complete write
        wins; concurrent writers of one key always hold identical payloads)."""

    def get_many(
        self, keys: Iterable[str], *, omit: Iterable[str] = ()
    ) -> Dict[str, Dict[str, Any]]:
        """Payloads for every *present* key of ``keys`` (missing/corrupt omitted).

        Each distinct key is consulted once, regardless of duplicates in the
        iterable.  ``omit`` lists JSON paths (``$.data.result.per_device``:
        ``$`` and object keys) to leave out of every payload, as SQLite's
        ``json_remove`` leaves them out: a path through a missing key or a
        non-object removes nothing.  The generic implementation loops over
        :meth:`get` and deletes the paths from each decoded payload; backends
        with a query interface (SQLite) answer a whole batch per statement,
        and skip decoding what ``omit`` names.
        """
        paths = omit_path_keys(omit)
        found: Dict[str, Dict[str, Any]] = {}
        for key in dict.fromkeys(keys):
            payload = self.get(key)
            if payload is not None:
                found[key] = omit_paths(payload, paths)
        return found

    def put_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Persist a batch of ``(key, payload)`` pairs (same contract as :meth:`put`).

        The generic implementation loops over :meth:`put`; backends with
        transactions (SQLite) write the whole batch in one.
        """
        for key, payload in items:
            self.put(key, payload)

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove one entry; ``True`` when something was removed."""

    @abstractmethod
    def keys(self) -> List[str]:
        """Every stored key, sorted (corrupt entries included)."""

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # -- introspection -----------------------------------------------------------

    @abstractmethod
    def stats(self) -> Dict[str, Any]:
        """Cheap live summary: ``{name, location, entries, size_bytes}``."""

    def kind_counts(self) -> Dict[str, int]:
        """Entries per payload ``kind`` (may scan; ``""`` counts unreadable).

        The generic implementation reads every payload; backends with a kind
        index (SQLite) answer from one query instead.
        """
        counts: Dict[str, int] = {}
        for key in self.keys():
            payload = self.get(key)
            kind = payload.get("kind") if isinstance(payload, dict) else None
            label = kind if isinstance(kind, str) else ""
            counts[label] = counts.get(label, 0) + 1
        return counts

    # -- maintenance -------------------------------------------------------------

    def prune(self, keys: Optional[Iterable[str]] = None) -> int:
        """Delete entries; returns how many were removed.

        With an explicit ``keys`` iterable, exactly those entries go.  With
        ``None``, only *corrupt* entries (unreadable payloads that can never
        be served) are removed — the safe default for a content-addressed
        cache, where every healthy entry is still correct.
        """
        if keys is None:
            keys = [key for key in self.keys() if self.get(key) is None]
        return sum(1 for key in keys if self.delete(key))

    # -- lifecycle ---------------------------------------------------------------

    def spec(self) -> Optional[str]:
        """Canonical ``name:key=value`` string re-opening this store.

        ``None`` when the store cannot be re-opened from a string (e.g. its
        location is not representable in the spec grammar) — callers then
        fall back to not sharing it across process boundaries.
        """
        return None

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "CacheBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def omit_path_keys(paths: Iterable[str]) -> List[Tuple[str, ...]]:
    """The object keys of each ``$.a.b`` path of ``paths``.

    Raises ``ValueError`` for any other path form (array indexes, quoted
    keys), which the backends would read differently.
    """
    keys = []
    for path in paths:
        names = tuple(path.split("."))
        if names[0] != "$" or len(names) < 2 or not all(
            name.isidentifier() for name in names[1:]
        ):
            raise ValueError(f"unsupported JSON path {path!r} (expected $.key.key...)")
        keys.append(names[1:])
    return keys


def omit_paths(payload: Dict[str, Any], paths: Sequence[Tuple[str, ...]]) -> Dict[str, Any]:
    """``payload`` with each of :func:`omit_path_keys`' key paths deleted in
    place; a path through a missing key or a non-object deletes nothing."""
    for *parents, last in paths:
        node: Any = payload
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node.pop(last, None)
    return payload


def _decoded(
    rows: Iterable[Tuple[str, Optional[str]]], paths: Sequence[Tuple[str, ...]] = ()
) -> Dict[str, Dict[str, Any]]:
    """``{key: payload}`` of the rows whose text decodes to an object, each
    without ``paths``; a row with no text or unreadable text is left out."""
    found: Dict[str, Dict[str, Any]] = {}
    for key, raw in rows:
        if raw is None:
            continue
        try:
            payload = json.loads(raw)
        except ValueError:
            continue
        if isinstance(payload, dict):
            found[key] = omit_paths(payload, paths)
    return found


def _format_spec(name: str, **options: Any) -> Optional[str]:
    """``name:key=value`` spec text, or ``None`` if a value is unrepresentable."""
    # Imported lazily: the spec grammar lives with the scheduler specs, and
    # importing it at module load would cycle through the service package.
    from repro.service.spec import BackendSpec

    try:
        return BackendSpec(name, options).format()
    except ValueError:
        return None


class DirectoryBackend(CacheBackend):
    """One atomically-written JSON file per key under a root directory.

    Byte-for-byte the cache layout that predates the backend interface, so
    existing cache directories keep working unchanged.  Concurrent processes
    sharing one directory are safe: every writer goes through its own unique
    temp file + atomic rename, and a directory deleted underneath a writer is
    recreated instead of crashing.
    """

    name = "directory"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        try:
            atomic_write_json(self._path(key), payload)
        except FileNotFoundError:
            # The root vanished (or was never created) underneath us — e.g. a
            # concurrent cleanup, or a writer racing the first mkdir.
            # Recreate it and retry once; a second failure is a real error.
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self._path(key), payload)

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
            return True
        except OSError:
            return False

    def keys(self) -> List[str]:
        try:
            return sorted(path.stem for path in self.root.glob("*.json"))
        except OSError:
            return []

    def stats(self) -> Dict[str, Any]:
        entries = 0
        size_bytes = 0
        try:
            for path in self.root.glob("*.json"):
                entries += 1
                try:
                    size_bytes += path.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return {
            "name": self.name,
            "location": str(self.root),
            "entries": entries,
            "size_bytes": size_bytes,
        }

    def spec(self) -> Optional[str]:
        return _format_spec(self.name, root=str(self.root))


class SqliteBackend(CacheBackend):
    """All entries in one SQLite file (WAL mode, single-writer journal).

    The file scales to millions of entries where a file-per-key directory
    drowns the filesystem.  Writes go through SQLite's write-ahead log: one
    writer at a time (others queue on ``busy_timeout``), readers — in this
    process or any other — never block.  ``INSERT OR IGNORE`` gives the
    caches' first-write-wins discipline a transactional form: once a key is
    in, no writer can replace it, so a reader can never observe a torn entry.

    One connection per backend instance, shared across threads behind a lock
    (SQLite objects must not be used concurrently from multiple threads
    without one).
    """

    name = "sqlite"

    def __init__(
        self,
        path: Union[str, Path],
        *,
        timeout: float = 30.0,
        wal: bool = True,
        synchronous: str = "normal",
    ):
        if synchronous.lower() not in ("off", "normal", "full", "extra"):
            raise ValueError(
                f"invalid synchronous mode {synchronous!r} "
                "(expected off/normal/full/extra)"
            )
        self.path = Path(path)
        self.timeout = float(timeout)
        self.wal = bool(wal)
        self.synchronous = synchronous.lower()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            str(self.path),
            timeout=self.timeout,
            check_same_thread=False,
            isolation_level=None,  # autocommit: every statement is its own txn
        )
        statements = [
            *(["PRAGMA journal_mode=WAL"] if self.wal else []),
            f"PRAGMA synchronous={self.synchronous.upper()}",
            f"PRAGMA busy_timeout={int(self.timeout * 1000)}",
            "CREATE TABLE IF NOT EXISTS entries ("
            "  key TEXT PRIMARY KEY,"
            "  kind TEXT NOT NULL DEFAULT '',"
            "  version INTEGER NOT NULL DEFAULT 0,"
            "  payload TEXT NOT NULL"
            ")",
            "CREATE INDEX IF NOT EXISTS entries_kind ON entries(kind)",
        ]
        deadline = time.monotonic() + self.timeout
        try:
            with self._lock:
                for statement in statements:
                    self._set_up(statement, deadline)
        except sqlite3.Error:
            self._connection.close()
            raise

    def _set_up(self, statement: str, deadline: float) -> None:
        """Run one set-up statement, retrying ``database is locked`` until
        ``deadline``: processes opening one fresh file at once (shard workers
        on one store) can meet a lock that the busy handler does not wait on."""
        while True:
            try:
                self._connection.execute(statement)
                return
            except sqlite3.OperationalError as error:
                if "database is locked" not in str(error) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._connection.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        kind = payload.get("kind")
        version = payload.get("version")
        with self._lock:
            self._connection.execute(
                "INSERT OR IGNORE INTO entries (key, kind, version, payload) "
                "VALUES (?, ?, ?, ?)",
                (
                    key,
                    kind if isinstance(kind, str) else "",
                    version if isinstance(version, int) else 0,
                    canonical_json(payload),
                ),
            )

    #: Maximum bound variables per batched SELECT (SQLite's historical limit
    #: is 999; stay comfortably below it).
    _MAX_QUERY_VARS = 500

    #: Whether a projected read checks each payload with ``json_valid``
    #: first.  SQLite 3.42 and later read JSON5 (a stored ``NaN`` or
    #: ``Infinity``) and write canonical JSON back, so ``json_remove`` would
    #: not return the number text stored; ``json_valid`` still accepts only
    #: strict JSON, and a payload it refuses is decoded here in full.  Older
    #: versions raise on such a payload, which sends its chunk to the same
    #: fallback without the cost of a second parse per row.
    _CHECK_STRICT_JSON = sqlite3.sqlite_version_info >= (3, 42, 0)

    def get_many(
        self, keys: Iterable[str], *, omit: Iterable[str] = ()
    ) -> Dict[str, Dict[str, Any]]:
        """See :meth:`CacheBackend.get_many`.  With ``omit``, SQLite removes
        the paths (``json_remove``) in the same batched SELECT, so only the
        rest of each payload reaches ``json.loads``.  A chunk SQLite cannot
        project (``sqlite3.OperationalError``: a malformed payload, or no
        JSON functions) is read again in full and trimmed here."""
        omit = tuple(omit)
        paths = omit_path_keys(omit)
        projection = f"json_remove(payload, {','.join('?' * len(omit))})"
        if self._CHECK_STRICT_JSON:
            projection = f"CASE WHEN json_valid(payload) THEN {projection} END"
        distinct = list(dict.fromkeys(keys))
        found: Dict[str, Dict[str, Any]] = {}
        step = max(1, self._MAX_QUERY_VARS - len(omit))
        with self._lock:
            for lo in range(0, len(distinct), step):
                chunk = distinct[lo:lo + step]
                whole = chunk
                if omit:
                    try:
                        rows = self._select(projection, chunk, omit)
                    except sqlite3.OperationalError:
                        pass  # no JSON functions, or a payload they cannot read
                    else:
                        # A payload json_valid refused comes back as NULL.
                        whole = [key for key, raw in rows if raw is None]
                        found.update(_decoded(rows))
                if whole:
                    found.update(_decoded(self._select("payload", whole), paths))
        return found

    def _select(self, column: str, keys: List[str], params: Tuple[str, ...] = ()):
        """``(key, column)`` rows of the present ``keys``; ``params`` bind the
        column expression's placeholders."""
        placeholders = ",".join("?" * len(keys))
        return self._connection.execute(
            f"SELECT key, {column} FROM entries WHERE key IN ({placeholders})",
            (*params, *keys),
        ).fetchall()

    def put_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        rows = []
        for key, payload in items:
            kind = payload.get("kind")
            version = payload.get("version")
            rows.append(
                (
                    key,
                    kind if isinstance(kind, str) else "",
                    version if isinstance(version, int) else 0,
                    canonical_json(payload),
                )
            )
        if not rows:
            return
        with self._lock:
            self._connection.execute("BEGIN")
            try:
                self._connection.executemany(
                    "INSERT OR IGNORE INTO entries (key, kind, version, payload) "
                    "VALUES (?, ?, ?, ?)",
                    rows,
                )
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            self._connection.execute("COMMIT")

    def delete(self, key: str) -> bool:
        with self._lock:
            cursor = self._connection.execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            )
            return cursor.rowcount > 0

    def keys(self) -> List[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT key FROM entries ORDER BY key"
            ).fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM entries"
            ).fetchone()
        return int(count)

    def stats(self) -> Dict[str, Any]:
        size_bytes = 0
        # WAL sidecars hold committed-but-uncheckpointed data; count them in.
        for path in (self.path, Path(f"{self.path}-wal"), Path(f"{self.path}-shm")):
            try:
                size_bytes += path.stat().st_size
            except OSError:
                pass
        return {
            "name": self.name,
            "location": str(self.path),
            "entries": len(self),
            "size_bytes": size_bytes,
        }

    def kind_counts(self) -> Dict[str, int]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT kind, COUNT(*) FROM entries GROUP BY kind"
            ).fetchall()
        return {str(kind): int(count) for kind, count in rows}

    def spec(self) -> Optional[str]:
        options: Dict[str, Any] = {"path": str(self.path)}
        if self.timeout != 30.0:
            options["timeout"] = self.timeout
        if not self.wal:
            options["wal"] = False
        if self.synchronous != "normal":
            options["synchronous"] = self.synchronous
        return _format_spec(self.name, **options)

    def close(self) -> None:
        with self._lock:
            self._connection.close()
