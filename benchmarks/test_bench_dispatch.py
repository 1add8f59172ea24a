"""Benchmarks of the warm-worker dispatch fast path.

Three properties of the PR-10 fast path are demonstrated:

* **warm vs cold cell latency** — re-running a scenario cell against warm
  per-process memo caches (materialisation, heuristic schedules, GA problems)
  skips every re-derivation: the warm rounds record memo hits and no new
  misses (the timings go to ``BENCH_results.json``; pass/fail rests on the
  deterministic counters, not on one wall-clock sample);
* **batched vs per-key SQLite lookup** — one ``get_many`` query answers a
  whole batch of keys where the per-key loop sends one ``SELECT`` per key
  (counted through the connection's trace callback; the timings go to
  ``BENCH_results.json``);
* the batched path stays byte-identical to the per-key path.
"""

import pytest

from repro.core.memo import memo_stats, reset_memos
from repro.scenario import create_scenario
from repro.service import ScheduleRequest, SchedulingService
from repro.store import SqliteBackend

#: One scenario cell: every method over a few systems of one scenario.
SPECS = ("static", "gpiocp", "ga:population_size=16,generations=8")
N_SYSTEMS = 3


def cell_batch():
    scenario = create_scenario("short-hyperperiod")
    return [
        ScheduleRequest(
            scenario=scenario,
            spec=spec,
            system_index=index,
            request_id=f"{index}/{spec}",
        )
        for index in range(N_SYSTEMS)
        for spec in SPECS
    ]


def run_cell():
    with SchedulingService(cache=None) as service:
        return service.submit_batch(cell_batch())


@pytest.mark.benchmark(group="dispatch")
def test_cold_cell_latency(benchmark):
    """A scenario cell with every memo cache empty (the pre-PR-10 cost)."""

    def cold_setup():
        reset_memos()
        return (), {}

    responses = benchmark.pedantic(run_cell, setup=cold_setup, rounds=3, iterations=1)
    assert len(responses) == len(SPECS) * N_SYSTEMS
    reset_memos()


#: The memos a warm rerun of the cell must be served by.
CELL_MEMOS = ("materialize", "heuristic", "ga-problem")


@pytest.mark.benchmark(group="dispatch")
def test_warm_cell_latency(benchmark):
    """The same cell against warm memos — byte-identical to the cold run, and
    answered from the memos: the warm rounds re-derive nothing."""
    reset_memos()
    cold = run_cell()
    before = memo_stats()

    responses = benchmark.pedantic(run_cell, rounds=3, iterations=1)
    assert [r.result_dict() for r in responses] == [r.result_dict() for r in cold]
    after = memo_stats()
    for name in CELL_MEMOS:
        assert after[name]["misses"] == before[name]["misses"], (
            f"{name} memo missed on a warm rerun"
        )
        assert after[name]["hits"] > before[name]["hits"], (
            f"{name} memo unused on a warm rerun"
        )
    reset_memos()


N_KEYS = 300


@pytest.fixture(scope="module")
def populated_sqlite(tmp_path_factory):
    path = tmp_path_factory.mktemp("dispatch-bench") / "cache.db"
    with SqliteBackend(path) as backend:
        backend.put_many(
            [
                (
                    f"{index:016x}",
                    {"kind": "repro/test-entry", "version": 1, "data": {"i": index}},
                )
                for index in range(N_KEYS)
            ]
        )
        yield backend


@pytest.mark.benchmark(group="dispatch")
def test_sqlite_lookup_per_key(benchmark, populated_sqlite):
    """The pre-PR-10 lookup loop: one SQLite query per key."""
    keys = [f"{index:016x}" for index in range(N_KEYS)]

    def per_key():
        return {key: populated_sqlite.get(key) for key in keys}

    found = benchmark(per_key)
    assert len(found) == N_KEYS


def count_selects(backend, lookup):
    """``lookup()`` and the number of ``SELECT`` statements it sent to SQLite."""
    statements = []
    backend._connection.set_trace_callback(statements.append)
    try:
        result = lookup()
    finally:
        backend._connection.set_trace_callback(None)
    return result, sum(sql.lstrip().upper().startswith("SELECT") for sql in statements)


@pytest.mark.benchmark(group="dispatch")
def test_sqlite_lookup_batched(benchmark, populated_sqlite):
    """One batched ``get_many`` query — same answers, one round trip."""
    keys = [f"{index:016x}" for index in range(N_KEYS)]

    per_key, per_key_selects = count_selects(
        populated_sqlite, lambda: {key: populated_sqlite.get(key) for key in keys}
    )
    _, batched_selects = count_selects(populated_sqlite, lambda: populated_sqlite.get_many(keys))
    assert (batched_selects, per_key_selects) == (1, N_KEYS)

    found = benchmark(lambda: populated_sqlite.get_many(keys))
    assert found == per_key
