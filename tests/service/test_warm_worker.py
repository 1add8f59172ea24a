"""The warm-worker fast path never changes an answer.

Responses must be byte-identical whether the per-process memo caches are cold
or warm, at any worker count and any chunk size — memoisation and slim job
payloads are invisible except in speed.
"""

import pytest

from repro.core.memo import memo_stats, reset_memos
from repro.scenario import create_scenario
from repro.service import ScheduleRequest, SchedulingService

METHODS = ("static", "gpiocp", "ga:population_size=8,generations=4")


@pytest.fixture(autouse=True)
def cold_memos():
    reset_memos()
    yield
    reset_memos()


def make_batch():
    return [
        ScheduleRequest(
            scenario=create_scenario(name),
            spec=spec,
            system_index=index,
            request_id=f"{name}/{index}/{spec}",
        )
        for name in ("short-hyperperiod", "paper-default")
        for index in range(2)
        for spec in METHODS
    ]


def run_batch(**service_kwargs):
    with SchedulingService(cache=None, **service_kwargs) as service:
        return [r.result_dict() for r in service.submit_batch(make_batch())]


class TestByteIdentity:
    def test_cold_vs_warm_serial(self):
        cold = run_batch()
        assert memo_stats()["materialize"]["entries"] > 0  # memos are warm now
        warm = run_batch()
        assert warm == cold

    @pytest.mark.parametrize("n_workers", [1, 4])
    @pytest.mark.parametrize("chunksize", [1, 4, 32])
    def test_any_worker_count_and_chunk_size(self, n_workers, chunksize):
        reference = run_batch()
        reset_memos()
        assert run_batch(n_workers=n_workers, chunksize=chunksize) == reference

    def test_warm_pool_rerun_is_identical(self):
        # One pool, two identical batches: the second run hits every
        # worker-side memo and must still answer byte-identically.
        with SchedulingService(cache=None, n_workers=2, chunksize=2) as service:
            first = [r.result_dict() for r in service.submit_batch(make_batch())]
            second = [r.result_dict() for r in service.submit_batch(make_batch())]
        assert second == first


class TestSlimPayloads:
    def test_entries_round_trip(self):
        scenarios = {}
        for request in make_batch():
            entry = SchedulingService.slim(request, scenarios)
            rebuilt = SchedulingService.inflate(entry, scenarios)
            assert rebuilt == request
            assert rebuilt.content_key() == request.content_key()

    def test_each_scenario_ships_once(self):
        batch = make_batch()
        scenarios = {}
        for request in batch:
            SchedulingService.slim(request, scenarios)
        distinct = {request.scenario.content_key() for request in batch}
        assert set(scenarios) == distinct
        assert len(scenarios) == 2

    def test_explicit_task_sets_ship_whole(self):
        scenario = create_scenario("short-hyperperiod")
        probe = ScheduleRequest(scenario=scenario, spec="static")
        request = ScheduleRequest(
            task_set=probe.effective_task_set(), spec="static"
        )
        scenarios = {}
        entry = SchedulingService.slim(request, scenarios)
        assert entry[0] == "request"
        assert scenarios == {}
        rebuilt = SchedulingService.inflate(entry, scenarios)
        assert rebuilt == request


class TestMemoHygiene:
    def test_memos_fill_but_responses_stay_pure(self):
        requests = make_batch()
        serialized_before = [request.to_json() for request in requests]
        with SchedulingService(cache=None) as service:
            responses = service.submit_batch(requests)
        # Execution warmed the memos ...
        stats = memo_stats()
        assert stats["materialize"]["misses"] > 0
        assert stats["heuristic"]["misses"] > 0
        # ... but neither requests nor responses carry a trace of it.
        assert [request.to_json() for request in requests] == serialized_before
        for response in responses:
            assert "memo" not in response.to_json()

    def test_eviction_keeps_the_memo_bounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CAP_MATERIALIZE", "2")
        run_batch()
        stats = memo_stats()["materialize"]
        assert stats["entries"] <= 2
        assert stats["evictions"] > 0
