"""``submit_stream`` on both services: windows, dedup across them, stores.

A batch is ``list(submit_stream(...))``, so these tests pin what the stream
promises with a window of four requests, small enough that one batch spans
three windows.  Keys by position (the system index drawn), windows
``[0 1 1 2] [3 1 4 0] [2 5]``:

* 0 is cached before the batch starts (a hit wherever it appears);
* 1 repeats inside its window, and again in the next window, where on a
  pool its leader is still in flight when that window is looked up;
* 2 repeats two windows later, after its result is stored.

Serially and on two workers, streamed lazily or as a batch, the responses,
their provenance and order, the ``computed`` count and the cache's hit,
miss and store counts must all be the same, and each key is computed once.
"""

import pytest

import repro.service.core as core
from repro.core.memo import reset_memos
from repro.runtime import SimulationRequest, SimulationService, execute_simulation
from repro.scenario import Scenario, WorkloadSpec
from repro.service import ScheduleRequest, SchedulingService, execute_request
from repro.taskgen import GeneratorConfig

TINY = Scenario(
    name="tiny",
    workload=WorkloadSpec(
        utilisation=0.4,
        generator=GeneratorConfig(hyperperiod_ms=360, min_period_ms=60, max_period_ms=120),
    ),
)

LAYOUT = (0, 1, 1, 2, 3, 1, 4, 0, 2, 5)
STATUSES = ["hit", "miss", "hit", "miss", "miss", "hit", "miss", "hit", "hit", "miss"]
#: Systems 1-5, each once.
COMPUTED = 5
#: Per-position lookups, window by window: [h m m m] [m h m h] [h m], plus
#: the miss and the store of warming system 0 up.
COUNTS = {"cache_hits": 4, "cache_misses": 7, "cache_stores": 6}


def schedule_request(index, tag):
    return ScheduleRequest(
        scenario=TINY, system_index=index, spec="static", request_id=f"s{index}/{tag}"
    )


def simulation_request(index, tag):
    return SimulationRequest(scenario=TINY, system_index=index, request_id=f"r{index}/{tag}")


SERVICES = {
    "schedule": (SchedulingService, schedule_request, execute_request),
    "simulation": (SimulationService, simulation_request, execute_simulation),
}


@pytest.fixture(autouse=True)
def four_request_windows(monkeypatch):
    monkeypatch.setattr(core, "STREAM_WINDOW", 4)
    reset_memos()
    yield
    reset_memos()


def stream_checking_stores(service, requests):
    """Consume the stream lazily; every answer must already be stored."""
    responses = []
    for response in service.submit_stream(requests):
        assert service.cache.backend.get(response.cache_key) is not None
        responses.append(response)
    return responses


CONSUMERS = {
    "stream": stream_checking_stores,
    "batch": lambda service, requests: service.submit_batch(requests),
}


def run(kind, n_workers, consume, tmp_path):
    service_cls, build, _ = SERVICES[kind]
    requests = [build(index, position) for position, index in enumerate(LAYOUT)]
    backend = f"sqlite:path={tmp_path / f'{kind}-{n_workers}-{consume}.db'}"
    with service_cls(n_workers=n_workers, cache_backend=backend) as service:
        service.submit(build(0, "warm-up"))
        read_back = []
        get = service.cache.get
        service.cache.get = lambda key: read_back.append(key) or get(key)
        responses = CONSUMERS[consume](service, requests)
        stats = service.stats()
        traces = len(service.last_traces)
        held = len(service.cache)
    return requests, responses, stats, traces, held, read_back


def answers(responses):
    return [
        (response.request_id, response.cache, response.cache_key, response.result_dict())
        for response in responses
    ]


@pytest.mark.parametrize("kind", sorted(SERVICES))
def test_stream_and_batch_agree_at_1_and_2_workers(kind, tmp_path):
    _, build, pure = SERVICES[kind]
    expected = {index: pure(build(index, "pure")).result_dict() for index in set(LAYOUT)}
    outputs = []
    for n_workers in (1, 2):
        for consume in sorted(CONSUMERS):
            requests, responses, stats, traces, held, read_back = run(
                kind, n_workers, consume, tmp_path
            )
            assert [response.request_id for response in responses] == [
                request.request_id for request in requests
            ]
            assert [response.cache for response in responses] == STATUSES
            assert [response.cache_key for response in responses] == [
                request.content_key() for request in requests
            ]
            assert [response.result_dict() for response in responses] == [
                expected[index] for index in LAYOUT
            ]
            # The warm-up computed system 0; the batch each other key once.
            assert stats["computed"] == 1 + COMPUTED
            assert {name: stats[name] for name in COUNTS} == COUNTS
            assert traces == len(LAYOUT)
            # Every window is answered: no in-process copy of a stored entry.
            assert held == 0
            # On a pool the second window is looked up while system 1's
            # leader is still in flight (no barrier at the window end), so
            # its repeat reads the stored result back once it is stored.
            # Whether system 2's leader is still in flight when the third
            # window is looked up depends on timing; the counts do not.
            if n_workers == 1:
                assert read_back == []
            else:
                assert read_back[0] == requests[1].content_key()
                assert set(read_back) <= {requests[1].content_key(), requests[3].content_key()}
            outputs.append(answers(responses))
    assert all(output == outputs[0] for output in outputs)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_without_a_cache_only_a_window_shares_computations(n_workers):
    requests = [schedule_request(index, position) for position, index in enumerate(LAYOUT)]
    with SchedulingService(n_workers=n_workers, cache=None) as service:
        responses = list(service.submit_stream(requests))
        computed = service.computed
    assert [response.cache for response in responses] == ["disabled"] * len(LAYOUT)
    # Distinct keys per window: {0 1 2} {3 1 4 0} {2 5}.
    assert computed == 3 + 4 + 2
    assert [response.result_dict() for response in responses] == [
        execute_request(request).result_dict() for request in requests
    ]


def test_stream_reads_requests_one_window_ahead():
    consumed = []

    def requests():
        for position, index in enumerate(LAYOUT):
            consumed.append(position)
            yield schedule_request(index, position)

    with SchedulingService() as service:
        stream = service.submit_stream(requests())
        next(stream)
        assert consumed == [0, 1, 2, 3]
        rest = list(stream)
    assert len(rest) == len(LAYOUT) - 1
