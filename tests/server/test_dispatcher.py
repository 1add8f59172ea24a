"""Dispatcher policy tests: dedup, admission control, drain, failure paths.

The services are replaced by gated stubs whose ``execute_in_pool`` returns a
:class:`concurrent.futures.Future` the test resolves by hand, so concurrency
windows (two requests in flight, a full queue, a drain with work pending) are
constructed deterministically instead of raced.  The stubs are real services
otherwise, so cache lookups and stores take the services' own path.
"""

import asyncio
from concurrent.futures import Future

import pytest

from repro.obs import MetricsRegistry
from repro.server.dispatcher import Dispatcher, Draining, Overloaded
from repro.service import (
    CACHE_HIT,
    CACHE_MISS,
    ScheduleCache,
    ScheduleRequest,
    SchedulerSpec,
    SchedulingService,
)
from repro.taskgen import GeneratorConfig, SystemGenerator


def make_request(index: int, request_id=None) -> ScheduleRequest:
    return ScheduleRequest(
        task_set=SystemGenerator(GeneratorConfig(), rng=index).generate(0.4),
        spec=SchedulerSpec.parse("static"),
        request_id=request_id,
    )


def result_dict(marker: float) -> dict:
    return {
        "spec": "static",
        "horizon": 1000,
        "schedulable": True,
        "psi": marker,
        "upsilon": 0.0,
        "best_psi": marker,
        "best_upsilon": 0.0,
        "per_device": {},
    }


class StubService(SchedulingService):
    """Service stand-in: every execute_in_pool call hands back a manual future."""

    def __init__(self, cache=None, n_workers: int = 1):
        super().__init__(cache=cache, n_workers=n_workers)
        self.calls = []

    def execute_in_pool(self, request):
        future = Future()
        self.calls.append((request, future))
        return future


def make_dispatcher(max_queue=64, cache=None):
    scheduling = StubService(cache=cache)
    simulation = StubService()
    return Dispatcher(scheduling=scheduling, simulation=simulation, max_queue=max_queue), scheduling


def resolve(service: StubService, call_index: int, marker: float):
    """Complete a pending stub computation with a canned response."""
    from repro.service.messages import ScheduleResponse

    request, future = service.calls[call_index]
    response = ScheduleResponse.from_result_dict(
        result_dict(marker), request_id=request.request_id, elapsed_s=0.25
    )
    future.set_result((response, {"phases": []}, MetricsRegistry().snapshot()))


class TestDedup:
    def test_concurrent_identical_requests_compute_once(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher(cache=ScheduleCache())
            request_a = make_request(0, request_id="a")
            request_b = make_request(0, request_id="b")  # same content key
            task_a = asyncio.ensure_future(dispatcher.schedule(request_a))
            task_b = asyncio.ensure_future(dispatcher.schedule(request_b))
            while not scheduling.calls:
                await asyncio.sleep(0)
            # Only the leader reached the pool; resolve it.
            assert len(scheduling.calls) == 1
            resolve(scheduling, 0, marker=1.5)
            response_a, response_b = await asyncio.gather(task_a, task_b)
            return dispatcher, response_a, response_b

        dispatcher, response_a, response_b = asyncio.run(scenario())
        statuses = sorted([response_a.cache, response_b.cache])
        assert statuses == [CACHE_HIT, CACHE_MISS]
        assert response_a.psi == response_b.psi == 1.5
        assert response_a.request_id == "a"
        assert response_b.request_id == "b"
        stats = dispatcher.stats()
        assert stats["schedule"]["computed"] == 1
        assert stats["schedule"]["in_flight_dedup"] == 1
        assert stats["requests"]["admitted"] == 1

    def test_follower_cancellation_leaves_leader_running(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher(cache=ScheduleCache())
            task_a = asyncio.ensure_future(dispatcher.schedule(make_request(0, "a")))
            task_b = asyncio.ensure_future(dispatcher.schedule(make_request(0, "b")))
            while not scheduling.calls:
                await asyncio.sleep(0)
            await asyncio.sleep(0)  # let the follower attach
            task_b.cancel()
            resolve(scheduling, 0, marker=2.0)
            response_a = await task_a
            with pytest.raises(asyncio.CancelledError):
                await task_b
            return response_a

        response_a = asyncio.run(scenario())
        assert response_a.cache == CACHE_MISS
        assert response_a.psi == 2.0

    def test_failure_propagates_to_all_waiters(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher(cache=ScheduleCache())
            task_a = asyncio.ensure_future(dispatcher.schedule(make_request(0, "a")))
            task_b = asyncio.ensure_future(dispatcher.schedule(make_request(0, "b")))
            while not scheduling.calls:
                await asyncio.sleep(0)
            await asyncio.sleep(0)
            _, future = scheduling.calls[0]
            future.set_exception(RuntimeError("worker died"))
            results = await asyncio.gather(task_a, task_b, return_exceptions=True)
            return dispatcher, results

        dispatcher, results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)
        assert dispatcher.failed == 1
        assert dispatcher.queue_depth == 0

    def test_cache_hit_skips_pool_and_admission(self):
        async def scenario():
            cache = ScheduleCache()
            dispatcher, scheduling = make_dispatcher(cache=cache)
            request = make_request(0, "a")
            cache.put(request.content_key(), result_dict(3.0))
            response = await dispatcher.schedule(request)
            return scheduling, dispatcher, response

        scheduling, dispatcher, response = asyncio.run(scenario())
        assert response.cache == CACHE_HIT
        assert response.elapsed_s == 0.0
        assert scheduling.calls == []
        assert dispatcher.admitted == 0


class TestAdmission:
    def test_queue_full_rejects_with_retry_hint(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher(max_queue=1)
            task = asyncio.ensure_future(dispatcher.schedule(make_request(0)))
            while not scheduling.calls:
                await asyncio.sleep(0)
            with pytest.raises(Overloaded) as exc_info:
                await dispatcher.schedule(make_request(1))
            resolve(scheduling, 0, marker=1.0)
            await task
            return dispatcher, exc_info.value

        dispatcher, error = asyncio.run(scenario())
        assert error.retry_after_s > 0
        assert dispatcher.rejected == 1
        # The slot freed up: the next request is admitted again.
        assert dispatcher.queue_depth == 0

    def test_dedup_followers_bypass_admission(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher(max_queue=1, cache=ScheduleCache())
            task_a = asyncio.ensure_future(dispatcher.schedule(make_request(0, "a")))
            while not scheduling.calls:
                await asyncio.sleep(0)
            # Queue is full, but an identical request attaches instead of
            # being rejected.
            task_b = asyncio.ensure_future(dispatcher.schedule(make_request(0, "b")))
            await asyncio.sleep(0)
            resolve(scheduling, 0, marker=1.0)
            return await asyncio.gather(task_a, task_b)

        response_a, response_b = asyncio.run(scenario())
        assert {response_a.cache, response_b.cache} == {CACHE_MISS, CACHE_HIT}

    def test_invalid_max_queue_rejected(self):
        with pytest.raises(ValueError):
            make_dispatcher(max_queue=0)


class TestDrain:
    def test_drain_refuses_new_work_and_waits_for_inflight(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher()
            task = asyncio.ensure_future(dispatcher.schedule(make_request(0)))
            while not scheduling.calls:
                await asyncio.sleep(0)
            drain_task = asyncio.ensure_future(dispatcher.drain())
            await asyncio.sleep(0)
            assert not drain_task.done()  # still waiting on the in-flight job
            with pytest.raises(Draining):
                await dispatcher.schedule(make_request(1))
            resolve(scheduling, 0, marker=1.0)
            await task
            await drain_task
            return dispatcher

        dispatcher = asyncio.run(scenario())
        assert dispatcher.queue_depth == 0
        assert dispatcher.draining

    def test_drain_with_idle_dispatcher_returns_immediately(self):
        async def scenario():
            dispatcher, _ = make_dispatcher()
            await dispatcher.drain()
            return dispatcher

        assert asyncio.run(scenario()).draining


class FailingStoreCache(ScheduleCache):
    """A cache whose writes fail, as with a locked database or a full disk."""

    def put(self, key, result):
        raise OSError("no space left on device")


class TestStoreFailure:
    def test_store_error_fails_leader_and_follower(self):
        async def scenario():
            dispatcher, scheduling = make_dispatcher(cache=FailingStoreCache())
            task_a = asyncio.ensure_future(dispatcher.schedule(make_request(0, "a")))
            task_b = asyncio.ensure_future(dispatcher.schedule(make_request(0, "b")))
            while not scheduling.calls:
                await asyncio.sleep(0)
            await asyncio.sleep(0)  # let the follower attach
            assert dispatcher.deduped("schedule") == 1
            resolve(scheduling, 0, marker=1.0)
            results = await asyncio.wait_for(
                asyncio.gather(task_a, task_b, return_exceptions=True), timeout=5
            )
            return dispatcher, results

        dispatcher, results = asyncio.run(scenario())
        assert [type(result) for result in results] == [OSError, OSError]
        assert dispatcher.failed == 1
        assert dispatcher.computed("schedule") == 0
        assert dispatcher._inflight == {}
        assert dispatcher.queue_depth == 0
