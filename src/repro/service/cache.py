"""Content-addressed cache of schedule results.

Entries are keyed by :meth:`ScheduleRequest.content_key
<repro.service.messages.ScheduleRequest.content_key>` — a hash of the task
set, the scheduler spec and the horizon — and hold the deterministic
``result_dict`` of the corresponding response.  The same key therefore hits
regardless of who asks, in which batch, at which worker count.

The cache always serves from memory; with a storage backend
(:class:`repro.store.CacheBackend`) it additionally persists every entry as a
versioned JSON payload and lazily loads entries back on lookup, so a service
restarted against a warm store recomputes nothing.  ``directory`` remains the
classic shorthand for the file-per-key
:class:`~repro.store.DirectoryBackend`; any other backend — e.g. one SQLite
file shared by concurrent shard workers — plugs in via ``backend=``.
Payloads written by a *newer* format version raise
:class:`~repro.core.serialization.PayloadVersionError` instead of being
silently recomputed and overwritten; corrupt payloads are treated as misses.

The cache is safe for concurrent use: in-process state is guarded by a lock
(the async serving daemon of :mod:`repro.server` touches one cache from the
event loop and from executor callback threads), and every backend's on-disk
form tolerates two *processes* racing on the same key — writes are atomic
(rename or transaction), first complete write wins, and every writer of a
given key holds an identical (content-addressed) result.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union
import threading

from repro.core.serialization import (
    PayloadVersionError,
    parse_versioned_payload,
    versioned_payload,
)
from repro.obs.metrics import CACHE_OPS_TOTAL, MetricsRegistry
from repro.store.backends import CacheBackend, DirectoryBackend

CACHE_ENTRY_KIND = "repro/schedule-cache-entry"
CACHE_ENTRY_VERSION = 1

_CACHE_OPS_HELP = "Cache lookups and stores by cache name and operation."


class ScheduleCache:
    """In-memory (and optionally backend-persisted) store of schedule results.

    ``kind``/``version`` name the persisted payload envelope; the defaults are
    the schedule-cache entry format.  Other content-addressed result stores
    (the simulation-response cache of :mod:`repro.runtime`) reuse this class
    with their own kind, so entries of different result types can never be
    misread as each other even when they share one backend (which is exactly
    what the SQLite backend does: one file, entries told apart by kind).
    """

    #: Value of the ``cache`` label on this cache's registry counters.
    METRICS_LABEL = "schedule"

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        backend: Optional[CacheBackend] = None,
        kind: str = CACHE_ENTRY_KIND,
        version: int = CACHE_ENTRY_VERSION,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if directory is not None and backend is not None:
            raise ValueError("pass either directory or backend, not both")
        self.kind = kind
        self.version = int(version)
        if backend is None and directory is not None:
            backend = DirectoryBackend(directory)
        self.backend: Optional[CacheBackend] = backend
        #: Root of the classic directory layout, ``None`` for any other
        #: backend.  Kept because callers use it to share a cache location.
        self.directory: Optional[Path] = (
            backend.root if isinstance(backend, DirectoryBackend) else None
        )
        self._entries: Dict[str, Dict[str, Any]] = {}
        #: Wire text of in-memory entries that have been answered (see
        #: :meth:`text`); it goes wherever its entry goes.
        self._texts: Dict[str, str] = {}
        self._lock = threading.Lock()
        #: The one source of lookup/store statistics over this cache's
        #: lifetime: ``repro_cache_ops_total{cache=<label>, op=hit|miss|store}``
        #: on this registry.  Pass a shared registry to aggregate several
        #: caches (and their service) into one scrape.
        self.registry = metrics if metrics is not None else MetricsRegistry()

    def _count_op(self, op: str) -> None:
        self.registry.counter_inc(
            CACHE_OPS_TOTAL,
            help=_CACHE_OPS_HELP,
            cache=self.METRICS_LABEL,
            op=op,
        )

    @property
    def hits(self) -> int:
        """Lookups answered from the cache (reads the registry counter)."""
        return int(
            self.registry.counter_value(
                CACHE_OPS_TOTAL, cache=self.METRICS_LABEL, op="hit"
            )
        )

    @property
    def misses(self) -> int:
        """Lookups that found nothing (reads the registry counter)."""
        return int(
            self.registry.counter_value(
                CACHE_OPS_TOTAL, cache=self.METRICS_LABEL, op="miss"
            )
        )

    @property
    def stores(self) -> int:
        """Entries stored (reads the registry counter)."""
        return int(
            self.registry.counter_value(
                CACHE_OPS_TOTAL, cache=self.METRICS_LABEL, op="store"
            )
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None

    # -- lookups -----------------------------------------------------------------

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but without touching the hit/miss statistics."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None and self.backend is not None:
            # Backend I/O happens outside the lock; racing loaders of the same
            # key read identical (content-addressed) entries, first one in wins.
            entry = self._load(key)
            if entry is not None:
                with self._lock:
                    entry = self._entries.setdefault(key, entry)
        return entry

    def peek_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Present entries for every distinct key of ``keys``; no statistics.

        Memory answers first; the remaining keys go to the backend as **one**
        batched read (one SQLite query per ~500 keys instead of one per key).
        """
        distinct = list(dict.fromkeys(keys))
        found: Dict[str, Dict[str, Any]] = {}
        missing: List[str] = []
        with self._lock:
            for key in distinct:
                entry = self._entries.get(key)
                if entry is None:
                    missing.append(key)
                else:
                    found[key] = entry
        if missing and self.backend is not None:
            # Backend I/O happens outside the lock; racing loaders of the same
            # key read identical (content-addressed) entries, first one in wins.
            payloads = self.backend.get_many(missing)
            loaded = {
                key: entry
                for key, payload in payloads.items()
                if (entry := self._parse_entry(payload)) is not None
            }
            if loaded:
                with self._lock:
                    for key, entry in loaded.items():
                        found[key] = self._entries.setdefault(key, entry)
        return found

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result for ``key``, or ``None`` on a miss."""
        entry = self.peek(key)
        self._count_op("miss" if entry is None else "hit")
        return entry

    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Present entries for ``keys``, counting one hit/miss per *occurrence*.

        The statistics match a ``get`` per element of ``keys`` exactly (so a
        batch with duplicates counts every position), while the backend is
        consulted only once per distinct key.
        """
        found = self.peek_many(keys)
        for key in keys:
            self._count_op("miss" if key not in found else "hit")
        return found

    def text(self, key: str, render: Callable[[], str]) -> str:
        """The answer text of ``key``'s entry: ``render()`` on the key's first
        call, then the kept string.

        A serving daemon renders an entry once and then answers every hit on
        it with the same bytes.  The text is kept only while the entry is in
        memory, and :meth:`clear_memory` drops it with the entry.
        """
        with self._lock:
            text = self._texts.get(key)
        if text is None:
            text = render()
            with self._lock:
                if key in self._entries:
                    text = self._texts.setdefault(key, text)
        return text

    def put(self, key: str, result: Dict[str, Any]) -> None:
        """Store ``result`` under ``key`` (idempotent; first write wins)."""
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = result
        self._count_op("store")
        if self.backend is not None:
            self._persist(key, result)

    def put_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Store a batch of ``(key, result)`` pairs (idempotent per key).

        Counts one ``store`` per key actually stored — same statistics as a
        ``put`` per pair — but persists all fresh entries in **one** backend
        write (one SQLite transaction instead of one per key).
        """
        fresh: List[Tuple[str, Dict[str, Any]]] = []
        with self._lock:
            for key, result in items:
                if key in self._entries:
                    continue
                self._entries[key] = result
                fresh.append((key, result))
        for _ in fresh:
            self._count_op("store")
        if fresh and self.backend is not None:
            self.backend.put_many(
                [
                    (
                        key,
                        versioned_payload(
                            self.kind, self.version, {"key": key, "result": result}
                        ),
                    )
                    for key, result in fresh
                ]
            )

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the lifetime counters (entries, hits, misses, stores).

        ``backend`` names where entries persist — the backend's own summary
        (name, location, entry count, size), or ``{"name": "memory"}`` for a
        memory-only cache.
        """
        backend = (
            self.backend.stats() if self.backend is not None else {"name": "memory"}
        )
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "backend": backend,
        }

    def backend_spec(self) -> Optional[str]:
        """Spec string re-opening this cache's backend (``None`` if not possible).

        This is how pool workers re-attach to the dispatching service's
        persistent cache across process boundaries.
        """
        return self.backend.spec() if self.backend is not None else None

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the backend's resources (idempotent; memory entries stay)."""
        if self.backend is not None:
            self.backend.close()

    def clear_memory(self, keys: Optional[Iterable[str]] = None) -> None:
        """Drop the in-process copies of entries the backend holds, and their
        answer texts: those of ``keys``, or every one.

        Later lookups read them from the backend again.  A memory-only cache
        keeps its entries, because they are the only copy.
        """
        if self.backend is not None:
            with self._lock:
                if keys is None:
                    self._entries.clear()
                    self._texts.clear()
                else:
                    for key in keys:
                        self._entries.pop(key, None)
                        self._texts.pop(key, None)

    # -- the persisted form ------------------------------------------------------

    def _persist(self, key: str, result: Dict[str, Any]) -> None:
        # The backend makes the write atomic and first-write-wins; every
        # writer of a given key holds an identical (content-addressed) result,
        # so whichever write lands, readers see a complete, correct entry.
        assert self.backend is not None
        payload = versioned_payload(
            self.kind, self.version, {"key": key, "result": result}
        )
        self.backend.put(key, payload)

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        assert self.backend is not None
        payload = self.backend.get(key)
        if payload is None:
            return None
        return self._parse_entry(payload)

    def _parse_entry(self, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        try:
            _, data = parse_versioned_payload(
                payload, self.kind, max_version=self.version
            )
            return dict(data["result"])
        except PayloadVersionError:
            raise  # a newer writer owns this entry: never clobber it
        except (ValueError, KeyError, TypeError):
            return None  # corrupt or foreign-kind entry: treat as a miss
