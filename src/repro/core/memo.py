"""Process-local memoisation: bounded LRU caches for warm-worker fast paths.

A long-lived worker process (the service pools, the serving daemon, campaign
runners) answers many requests whose *inputs repeat*: the same scenario
materialised at the same system index, the same job partition pushed through
the heuristic scheduler, the same GA problem compiled again.  Re-deriving that
state is pure — bit-identical every time — which is exactly what makes it safe
to memoise: a warm worker may *skip* a derivation, never change its result.

:class:`LRUMemo` is the one primitive: a thread-safe, bounded,
least-recently-used mapping with hit/miss/eviction counters.  Memos are
registered by name through :func:`get_memo` so that every layer shares one
per-process registry — :func:`memo_stats` snapshots all of them, and
:func:`drain_memo_metrics` ships their counters into a
:class:`~repro.obs.metrics.MetricsRegistry` as *deltas* (counter increments
since the previous drain), which is what lets pool workers report memo
activity through the same snapshot-merge path as every other metric without
double counting.

Capacities bound worker memory and are tunable per memo via
``REPRO_MEMO_CAP_<NAME>`` environment variables (name upper-cased, dashes as
underscores; ``0`` disables the memo entirely).  Memoised values are shared
between callers, so only immutable (or defensively copied) values may be
stored — the call sites document what they cache and why it is safe.

Nothing in this module ever feeds into request envelopes, content keys,
journals or cached payloads: memoisation is invisible except in speed.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, Optional

#: Fallback capacity for memos registered without an explicit default.
DEFAULT_MEMO_CAPACITY = 128


class HashedKey(tuple):
    """A tuple memo key that hashes its items once, not on every lookup."""

    def __init__(self, items: Iterable[Hashable]) -> None:
        self._hash = tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


def _env_capacity(name: str, default: int) -> int:
    """Resolve a memo's capacity: ``REPRO_MEMO_CAP_<NAME>`` wins over ``default``."""
    variable = "REPRO_MEMO_CAP_" + name.upper().replace("-", "_")
    raw = os.environ.get(variable)
    if raw is None:
        return int(default)
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(f"{variable} must be an integer, got {raw!r}") from None
    if capacity < 0:
        raise ValueError(f"{variable} must be >= 0, got {capacity}")
    return capacity


class LRUMemo:
    """A thread-safe, bounded, least-recently-used memo with counters.

    ``capacity`` bounds the number of stored entries; inserting beyond it
    evicts the least recently *used* entry (lookups refresh recency).  A
    capacity of ``0`` disables storage: every lookup misses, nothing is
    retained — the uniform way to switch a memo off.
    """

    def __init__(self, name: str, capacity: int = DEFAULT_MEMO_CAPACITY):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Counter values at the last drain_deltas() call (hits, misses,
        # evictions) — what turns lifetime totals into per-drain increments.
        self._drained = (0, 0, 0)

    # -- the cache surface -------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        """The memoised value for ``key`` (refreshing recency), else ``None``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key``; returns the value that is now stored.

        First write wins (a concurrent writer of the same key holds an
        equivalent value — memoised computations are pure), and the insert
        evicts the least recently used entry beyond ``capacity``.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            if self.capacity == 0:
                return value
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The memoised value for ``key``, creating (and storing) it on a miss.

        ``factory`` runs outside the lock: memoised derivations can be slow,
        and they are pure, so two racing threads at worst compute the same
        value twice — first write wins.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
        return self.put(key, factory())

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are lifetime totals)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    # -- introspection -----------------------------------------------------------

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current size and capacity."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def drain_deltas(self) -> Dict[str, int]:
        """Counter increments since the previous drain (resets the watermark).

        This is what feeds the metrics registry: increments — not absolute
        totals — survive the snapshot *merge* of pooled execution without
        double counting, because each worker's registry carries only what that
        worker did since it last shipped a snapshot.
        """
        with self._lock:
            hits, misses, evictions = self._drained
            deltas = {
                "hit": self._hits - hits,
                "miss": self._misses - misses,
                "evict": self._evictions - evictions,
            }
            self._drained = (self._hits, self._misses, self._evictions)
            return deltas


# -- the per-process memo registry -------------------------------------------------

_MEMOS: Dict[str, LRUMemo] = {}
_MEMOS_LOCK = threading.Lock()


def get_memo(name: str, capacity: int = DEFAULT_MEMO_CAPACITY) -> LRUMemo:
    """The process-wide memo registered under ``name`` (created on first use).

    ``capacity`` is the default cap, overridable via the
    ``REPRO_MEMO_CAP_<NAME>`` environment variable (read at creation time);
    later calls with a different default reuse the existing memo unchanged.
    """
    with _MEMOS_LOCK:
        memo = _MEMOS.get(name)
        if memo is None:
            memo = LRUMemo(name, _env_capacity(name, capacity))
            _MEMOS[name] = memo
        return memo


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Stats of every registered memo, by name (sorted)."""
    with _MEMOS_LOCK:
        memos = sorted(_MEMOS.items())
    return {name: memo.stats() for name, memo in memos}


def reset_memos() -> None:
    """Drop every registered memo entirely (entries *and* counters).

    Test isolation and cold-path benchmarking only — production code never
    needs to forget pure derivations.
    """
    with _MEMOS_LOCK:
        _MEMOS.clear()


def drain_memo_metrics(registry) -> None:
    """Ship every memo's counter deltas into ``registry``.

    Emits ``repro_memo_ops_total{memo=<name>, op=hit|miss|evict}`` counter
    increments.  Call once per unit of shipped work (a worker chunk, a serial
    batch): each drain moves the watermark, so merging the resulting snapshots
    reconstructs exact per-process totals.
    """
    # Imported here so repro.core stays import-light; repro.obs does not
    # import this module, so there is no cycle either way.
    from repro.obs.metrics import MEMO_OPS_TOTAL

    with _MEMOS_LOCK:
        memos = sorted(_MEMOS.items())
    for name, memo in memos:
        for op, delta in memo.drain_deltas().items():
            if delta:
                registry.counter_inc(
                    MEMO_OPS_TOTAL,
                    delta,
                    help="Per-worker memo-cache operations by memo name and op.",
                    memo=name,
                    op=op,
                )
