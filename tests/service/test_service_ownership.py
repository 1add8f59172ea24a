"""The ownership contract both services inherit from the execution core.

A service releases what it created — an owned worker pool, a cache backend
it opened from a spec string — and leaves alone what it was handed: a
borrowed executor (the daemon's simulation service borrows the scheduling
pool) and a passed-in cache.
"""

import sqlite3
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime import SimulationCache, SimulationRequest, SimulationService
from repro.scenario import Scenario, WorkloadSpec
from repro.service import ScheduleCache, ScheduleRequest, SchedulingService
from repro.store import SqliteBackend
from repro.taskgen import GeneratorConfig

TINY = Scenario(
    name="tiny",
    workload=WorkloadSpec(
        utilisation=0.4,
        generator=GeneratorConfig(hyperperiod_ms=360, min_period_ms=60, max_period_ms=120),
    ),
)


def schedule_requests():
    return [ScheduleRequest(scenario=TINY, system_index=i, spec="static") for i in range(2)]


def simulation_requests():
    return [SimulationRequest(scenario=TINY, system_index=i) for i in range(2)]


SERVICES = pytest.mark.parametrize(
    "service_cls, cache_cls, make_requests",
    [
        (SchedulingService, ScheduleCache, schedule_requests),
        (SimulationService, SimulationCache, simulation_requests),
    ],
    ids=["scheduling", "simulation"],
)


def is_closed(backend: SqliteBackend) -> bool:
    try:
        backend.get("0" * 16)
    except sqlite3.ProgrammingError:
        return True
    return False


@SERVICES
def test_borrowed_executor_outlives_the_service(service_cls, cache_cls, make_requests):
    with ThreadPoolExecutor(max_workers=2) as executor:
        service = service_cls(n_workers=2, executor=executor, cache=None)
        assert len(service.submit_batch(make_requests())) == 2  # pooled path
        service.close()
        assert executor.submit(sum, [1, 2]).result() == 3


@SERVICES
def test_owned_pool_is_shut_down(service_cls, cache_cls, make_requests):
    service = service_cls(n_workers=2, cache=None)
    executor = service._get_executor()
    service.close()
    with pytest.raises(RuntimeError):
        executor.submit(sum, [1, 2])


@SERVICES
def test_spec_string_backend_is_owned_a_passed_cache_is_not(
    service_cls, cache_cls, make_requests, tmp_path
):
    owned = service_cls(cache_backend=f"sqlite:path={tmp_path / 'owned.db'}")
    owned.close()
    assert is_closed(owned.cache.backend)

    backend = SqliteBackend(tmp_path / "shared.db")
    service = service_cls(cache=cache_cls(backend=backend))
    service.close()
    assert not is_closed(backend)
    backend.close()


@SERVICES
def test_constructor_rejects_bad_options(service_cls, cache_cls, make_requests, tmp_path):
    with pytest.raises(ValueError, match="chunksize"):
        service_cls(chunksize=0)
    with pytest.raises(ValueError, match="not both cache_dir and cache_backend"):
        service_cls(
            cache_dir=str(tmp_path / "dir"),
            cache_backend=f"sqlite:path={tmp_path / 'cache.db'}",
        )
