"""Benchmarks of the scheduling service: batch throughput and cache hits.

Two properties are demonstrated on a synthetic request batch:

* **batch scheduling throughput** — a mixed batch of methods through
  :class:`~repro.service.SchedulingService` costs what the underlying
  schedulers cost (the facade adds only hashing and envelope building);
  every round starts on cold per-process memos, so it times the schedulers
  rather than memo hits;
* **near-free cache hits** — resubmitting the same batch against the
  populated content-addressed cache recomputes and stores nothing (counted,
  not timed; the timings go to ``BENCH_results.json``).  One store is filled
  once; every round builds a fresh service over it, on cold per-process
  memos.
"""

import pytest

from repro.core.memo import reset_memos
from repro.service import ScheduleRequest, SchedulerSpec, SchedulingService
from repro.taskgen import GeneratorConfig, SystemGenerator

#: Methods exercised per task set (the GA dominates, as in the sweeps).
SPECS = ("fps-offline", "gpiocp", "static", "ga:population_size=16,generations=8")
N_SYSTEMS = 6


@pytest.fixture(scope="module")
def request_batch():
    return [
        ScheduleRequest(
            task_set=SystemGenerator(GeneratorConfig(), rng=index).generate(0.5),
            spec=SchedulerSpec.parse(spec),
            request_id=f"{index}/{spec}",
        )
        for index in range(N_SYSTEMS)
        for spec in SPECS
    ]


@pytest.mark.benchmark(group="service")
def test_service_batch_throughput(benchmark, request_batch):
    def run_batch():
        with SchedulingService(cache=None) as service:
            return service.submit_batch(request_batch)

    def cold_memos():
        reset_memos()
        return (), {}

    responses = benchmark.pedantic(run_batch, setup=cold_memos, rounds=5, iterations=1)
    assert len(responses) == len(request_batch)
    assert all(response.cache == "disabled" for response in responses)


@pytest.mark.benchmark(group="service")
def test_service_cache_hits_are_near_free(benchmark, request_batch, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("service-cache"))

    with SchedulingService(cache_dir=cache_dir) as service:
        cold = service.submit_batch(request_batch)
        assert service.computed == len(request_batch)

    def warm_run():
        with SchedulingService(cache_dir=cache_dir) as service:
            return service.submit_batch(request_batch), service.stats()

    def cold_memos():
        reset_memos()
        return (), {}

    warm, stats = benchmark.pedantic(warm_run, setup=cold_memos, rounds=5, iterations=1)

    assert stats["computed"] == 0
    assert stats["cache_hits"] == len(request_batch)
    assert stats["cache_stores"] == 0
    assert all(response.cache == "hit" for response in warm)
    assert [r.result_dict() for r in warm] == [r.result_dict() for r in cold]
