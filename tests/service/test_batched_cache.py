"""Batched cache I/O: get_many/put_many on backends, caches and the services.

One backend read per window of a batch, statistics identical to the
per-key calls, and per-position hit/miss provenance untouched.
"""

import pytest

from repro.service import (
    CACHE_HIT,
    CACHE_MISS,
    ScheduleCache,
    ScheduleRequest,
    SchedulerSpec,
    SchedulingService,
)
from repro.store import DirectoryBackend, SqliteBackend
from repro.taskgen import GeneratorConfig, SystemGenerator


def payload(index):
    return {"kind": "repro/test-entry", "version": 1, "data": {"answer": index}}


@pytest.fixture(params=["directory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "directory":
        with DirectoryBackend(tmp_path / "store") as instance:
            yield instance
    else:
        with SqliteBackend(tmp_path / "store.db") as instance:
            yield instance


class TestBackendBatchContract:
    def test_get_many_returns_present_entries_only(self, backend):
        backend.put("aa" * 8, payload(1))
        backend.put("bb" * 8, payload(2))
        found = backend.get_many(["aa" * 8, "bb" * 8, "cc" * 8, "aa" * 8])
        assert found == {"aa" * 8: payload(1), "bb" * 8: payload(2)}

    def test_get_many_empty(self, backend):
        assert backend.get_many([]) == {}

    def test_put_many_round_trips(self, backend):
        items = [(f"{index:016x}", payload(index)) for index in range(8)]
        backend.put_many(items)
        assert backend.get_many([key for key, _ in items]) == dict(items)
        assert len(backend) == 8

    def test_put_many_rewrite_never_tears(self, backend):
        # Real writers of one key always hold identical content-addressed
        # payloads; whichever write lands, the entry must stay complete.
        backend.put("aa" * 8, payload(1))
        backend.put_many([("aa" * 8, payload(2)), ("bb" * 8, payload(3))])
        assert backend.get("aa" * 8) in (payload(1), payload(2))
        assert backend.get("bb" * 8) == payload(3)
        assert len(backend) == 2

    def test_sqlite_put_many_is_first_write_wins(self, tmp_path):
        with SqliteBackend(tmp_path / "fww.db") as sqlite:
            sqlite.put("aa" * 8, payload(1))
            sqlite.put_many([("aa" * 8, payload(2)), ("bb" * 8, payload(3))])
            assert sqlite.get("aa" * 8) == payload(1)
            assert sqlite.get("bb" * 8) == payload(3)

    def test_put_many_empty_is_a_noop(self, backend):
        backend.put_many([])
        assert len(backend) == 0


class TestSqliteChunking:
    def test_batches_beyond_the_query_variable_limit(self, tmp_path):
        # 600 keys exceed SQLite's per-query variable budget; the backend
        # must chunk transparently in both directions.
        with SqliteBackend(tmp_path / "store.db") as backend:
            items = [(f"{index:016x}", payload(index)) for index in range(600)]
            backend.put_many(items)
            assert len(backend) == 600
            found = backend.get_many([key for key, _ in items] + ["ff" * 8])
            assert found == dict(items)


class CountingBackend(DirectoryBackend):
    """A directory backend that counts read/write calls."""

    def __init__(self, root):
        super().__init__(root)
        self.get_calls = 0
        self.get_many_calls = 0
        self.put_calls = 0
        self.put_many_calls = 0

    def get(self, key):
        self.get_calls += 1
        return super().get(key)

    def get_many(self, keys):
        # Bypass the counted ``get`` so ``get_calls`` counts only direct
        # per-key reads — the calls batching is supposed to eliminate.
        self.get_many_calls += 1
        found = {}
        for key in dict.fromkeys(keys):
            payload = DirectoryBackend.get(self, key)
            if payload is not None:
                found[key] = payload
        return found

    def put(self, key, payload):
        self.put_calls += 1
        super().put(key, payload)

    def put_many(self, items):
        # Same idea for writes: keep ``put_calls`` for direct per-key writes.
        self.put_many_calls += 1
        for key, payload in items:
            DirectoryBackend.put(self, key, payload)


def result(index):
    return {"answer": index}


class TestScheduleCacheBatchOps:
    def test_get_many_counts_per_occurrence(self, tmp_path):
        cache = ScheduleCache(backend=CountingBackend(tmp_path / "c"))
        cache.put("aa" * 8, result(1))
        found = cache.get_many(["aa" * 8, "bb" * 8, "aa" * 8])
        assert found == {"aa" * 8: result(1)}
        assert cache.hits == 2 and cache.misses == 1

    def test_peek_many_is_statistics_free_and_batched(self, tmp_path):
        backend = CountingBackend(tmp_path / "c")
        cache = ScheduleCache(backend=backend)
        cache.put("aa" * 8, result(1))
        fresh = ScheduleCache(backend=backend)  # empty memory, warm backend
        assert fresh.peek_many(["aa" * 8, "bb" * 8]) == {"aa" * 8: result(1)}
        assert fresh.hits == 0 and fresh.misses == 0
        assert backend.get_many_calls == 1 and backend.get_calls == 0

    def test_put_many_stores_fresh_entries_in_one_write(self, tmp_path):
        backend = CountingBackend(tmp_path / "c")
        cache = ScheduleCache(backend=backend)
        cache.put("aa" * 8, result(1))
        cache.put_many([("aa" * 8, result(2)), ("bb" * 8, result(3))])
        assert cache.stores == 2  # one per key actually stored
        assert cache.peek("aa" * 8) == result(1)  # first write won
        assert backend.put_many_calls == 1
        # The persisted payloads round trip through a fresh cache.
        fresh = ScheduleCache(backend=backend)
        assert fresh.peek_many(["aa" * 8, "bb" * 8]) == {
            "aa" * 8: result(1),
            "bb" * 8: result(3),
        }


    def test_clear_memory_keeps_entries_only_a_backend_holds(self, tmp_path):
        backend = CountingBackend(tmp_path / "c")
        cache = ScheduleCache(backend=backend)
        cache.put("aa" * 8, result(1))
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get_many(["aa" * 8]) == {"aa" * 8: result(1)}
        assert backend.get_many_calls == 1
        memory_only = ScheduleCache()
        memory_only.put("aa" * 8, result(1))
        memory_only.clear_memory()
        assert memory_only.peek("aa" * 8) == result(1)


class TestBatchLookupInService:
    def make_requests(self):
        return [
            ScheduleRequest(
                task_set=SystemGenerator(GeneratorConfig(), rng=index).generate(0.4),
                spec=SchedulerSpec.parse("static"),
                request_id=f"{index}/{copy}",
            )
            for index in range(3)
            for copy in range(2)  # every request appears twice
        ]

    def test_one_backend_round_trip_per_batch(self, tmp_path):
        backend = CountingBackend(tmp_path / "c")
        requests = self.make_requests()
        with SchedulingService(cache=ScheduleCache(backend=backend)) as service:
            responses = service.submit_batch(requests)
        # One batched read for the window.  Serially each result is stored
        # before it is yielded: one write per distinct key.
        assert backend.get_many_calls == 1 and backend.get_calls == 0
        assert backend.put_many_calls == 3 and backend.put_calls == 0
        # Per-position provenance is untouched: first occurrence of each key
        # is the miss, its duplicate an in-batch hit.
        assert [response.cache for response in responses] == [
            CACHE_MISS,
            CACHE_HIT,
        ] * 3

    def test_pooled_batch_stores_each_finished_chunk_once(self, tmp_path):
        backend = CountingBackend(tmp_path / "c")
        requests = self.make_requests()
        with SchedulingService(
            n_workers=2, cache=ScheduleCache(backend=backend)
        ) as service:
            responses = service.submit_batch(requests)
        # The three distinct keys form one chunk: one read, one write.
        assert backend.get_many_calls == 1 and backend.get_calls == 0
        assert backend.put_many_calls == 1 and backend.put_calls == 0
        assert [response.cache for response in responses] == [
            CACHE_MISS,
            CACHE_HIT,
        ] * 3

    def test_second_batch_hits_without_touching_puts(self, tmp_path):
        backend = CountingBackend(tmp_path / "c")
        requests = self.make_requests()
        with SchedulingService(cache=ScheduleCache(backend=backend)) as service:
            service.submit_batch(requests)
            stored = backend.put_many_calls
            responses = service.submit_batch(requests)
        assert all(response.cache == CACHE_HIT for response in responses)
        assert backend.put_many_calls == stored == 3  # nothing new to store
