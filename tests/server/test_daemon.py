"""Daemon tests over real sockets: parity, errors, dedup, lifecycle, stats."""

import asyncio
import copy
import json
import multiprocessing
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.runtime import SimulationService
from repro.runtime.__main__ import scenario_requests as sim_scenario_requests
from repro.server import (
    AsyncServerClient,
    ReproServer,
    ServerClient,
    ServerError,
    ThreadedServer,
)
from repro.server.protocol import (
    ERR_INVALID_JSON,
    ERR_INVALID_REQUEST,
    ERR_OVERSIZED_LINE,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_KIND,
    ERR_UNKNOWN_OP,
    ERR_VERSION_MISMATCH,
    SERVER_ERROR_KIND,
    SERVER_RESPONSE_KIND,
    decode_answer_line,
    encode_request,
)
from repro.service import SchedulingService
from repro.service.batch_cli import scenario_requests

SCENARIO = "short-hyperperiod"


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(n_workers=1, port=0) as threaded:
        yield threaded.server


@pytest.fixture()
def client(server):
    with ServerClient(server.host, server.port) as connected:
        yield connected


def normalized(payload: dict) -> dict:
    """A response envelope with wall-clock timing masked (cold-path compare)."""
    masked = copy.deepcopy(payload)
    masked["data"]["timing"]["elapsed_s"] = 0.0
    return masked


class TestParity:
    """Acceptance: daemon answers == batch-service answers, byte for byte."""

    def test_schedule_responses_match_batch_service(self, client):
        requests = scenario_requests(SCENARIO, ["static", "fps-offline"], 2)
        with SchedulingService() as service:
            batch = service.submit_batch(requests)
        served = client.schedule_batch(requests)
        assert [normalized(response.to_dict()) for response in served] == [
            normalized(response.to_dict()) for response in batch
        ]

    def test_warm_responses_are_byte_identical(self, client):
        requests = scenario_requests(SCENARIO, ["static"], 2)
        client.schedule_batch(requests)  # warm the daemon's cache
        with SchedulingService() as service:
            service.submit_batch(requests)
            batch = service.submit_batch(requests)  # warm locally too
        served = client.schedule_batch(requests)
        # Warm answers carry elapsed_s == 0.0 and cache == hit on both paths,
        # so the comparison needs no normalisation at all.
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in served] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in batch
        ]

    def test_simulation_round_trip(self, client):
        requests = sim_scenario_requests(SCENARIO, ["static"], ["controller"], 1)
        cold = client.simulate_batch(requests)
        warm = client.simulate_batch(requests)
        assert [response.cache for response in warm] == ["hit"]
        assert cold[0].result_dict() == warm[0].result_dict()

    def test_bare_request_envelope_lines_are_accepted(self, server):
        request = scenario_requests(SCENARIO, ["static"], 1)[0]
        with socket.create_connection((server.host, server.port)) as raw:
            raw.sendall((request.to_json() + "\n").encode())
            answer = decode_answer_line(raw.makefile("rb").readline())
        assert answer["kind"] == SERVER_RESPONSE_KIND
        # The request's id doubles as the tag.
        assert answer["data"]["tag"] == request.request_id
        assert answer["data"]["payload"]["data"]["id"] == request.request_id


class TestErrorEnvelopes:
    """A bad line is a structured error answer, never a crash or a drop."""

    @pytest.mark.parametrize(
        "line, code",
        [
            (b"not json at all\n", ERR_INVALID_JSON),
            (b'{"kind": "repro/server-request", "versi\n', ERR_INVALID_JSON),
            (b'{"kind": "repro/mystery", "version": 1, "data": {}}\n', ERR_UNKNOWN_KIND),
            (
                b'{"kind": "repro/server-request", "version": 1,'
                b' "data": {"op": "dance", "tag": "t"}}\n',
                ERR_UNKNOWN_OP,
            ),
            (
                b'{"kind": "repro/server-request", "version": 9,'
                b' "data": {"op": "stats", "tag": "t"}}\n',
                ERR_VERSION_MISMATCH,
            ),
            (
                b'{"kind": "repro/server-request", "version": 1,'
                b' "data": {"op": "schedule", "tag": "t"}}\n',
                ERR_INVALID_REQUEST,
            ),
            (
                # A payload of the wrong inner kind fails ScheduleRequest
                # parsing and is reported against the request's tag.
                b'{"kind": "repro/server-request", "version": 1,'
                b' "data": {"op": "schedule", "tag": "t", "payload": {"kind": "x"}}}\n',
                ERR_INVALID_REQUEST,
            ),
        ],
    )
    def test_malformed_line_answers_structured_error(self, server, line, code):
        with socket.create_connection((server.host, server.port)) as raw:
            handle = raw.makefile("rb")
            raw.sendall(line)
            answer = decode_answer_line(handle.readline())
            assert answer["kind"] == SERVER_ERROR_KIND
            assert answer["data"]["error"] == code
            # The connection survived: a well-formed op still answers.
            raw.sendall(encode_request("health", tag="after"))
            after = decode_answer_line(handle.readline())
        assert after["kind"] == SERVER_RESPONSE_KIND
        assert after["data"]["tag"] == "after"

    def test_inner_version_mismatch_reports_the_request_tag(self, server):
        request = scenario_requests(SCENARIO, ["static"], 1)[0]
        envelope = request.to_dict()
        envelope["version"] = 99
        with socket.create_connection((server.host, server.port)) as raw:
            raw.sendall(
                encode_request("schedule", tag="inner", payload=envelope)
            )
            answer = decode_answer_line(raw.makefile("rb").readline())
        assert answer["data"]["error"] == ERR_VERSION_MISMATCH
        assert answer["data"]["tag"] == "inner"

    def test_oversized_line_answers_error_and_resyncs(self):
        with ThreadedServer(n_workers=1, port=0, max_line_bytes=256) as threaded:
            server = threaded.server
            with socket.create_connection((server.host, server.port)) as raw:
                handle = raw.makefile("rb")
                raw.sendall(b"x" * 1000 + b"\n")
                answer = decode_answer_line(handle.readline())
                assert answer["data"]["error"] == ERR_OVERSIZED_LINE
                raw.sendall(encode_request("health", tag="ok"))
                after = decode_answer_line(handle.readline())
            assert after["data"]["tag"] == "ok"

    def test_execution_failure_is_reported_not_fatal(self, client):
        bad = sim_scenario_requests(SCENARIO, ["static"], ["controller"], 1)[0]
        envelope = bad.to_dict()
        envelope["data"]["execution_model"] = {"name": "no-such-model"}
        with pytest.raises(ServerError):
            client.submit_envelopes([envelope])
        assert client.health()["status"] == "ok"


class TestStatsAndHealth:
    def test_health_payload(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["queue_depth"] == 0
        assert isinstance(health["pid"], int)

    def test_stats_payload_shape(self, client):
        requests = scenario_requests(SCENARIO, ["gpiocp"], 1)
        client.schedule_batch(requests)
        client.schedule_batch(requests)
        stats = client.stats()
        assert stats["server"]["n_workers"] == 1
        assert stats["server"]["connections_total"] >= 1
        assert stats["queue"]["limit"] > 0
        assert stats["schedule"]["cache"]["hits"] >= 1
        assert stats["schedule"]["computed"] >= 1
        assert stats["requests"]["admitted"] >= 1


class GatedStubService(SchedulingService):
    """Injectable service whose computations complete only when released."""

    def __init__(self):
        super().__init__(cache=None)
        self.calls = []
        self.release = threading.Event()

    def execute_in_pool(self, request):
        from repro.obs import MetricsRegistry
        from repro.service.messages import ScheduleResponse

        future = Future()
        self.calls.append(request)

        def worker():
            self.release.wait(timeout=30)
            response = ScheduleResponse.from_result_dict(
                {
                    "spec": "static",
                    "horizon": 100,
                    "schedulable": True,
                    "psi": 0.5,
                    "upsilon": 0.0,
                    "best_psi": 0.5,
                    "best_upsilon": 0.0,
                    "per_device": {},
                },
                request_id=request.request_id,
                elapsed_s=0.1,
            )
            future.set_result((response, {"phases": []}, MetricsRegistry().snapshot()))

        threading.Thread(target=worker, daemon=True).start()
        return future


class TestInFlightDedupOverTheWire:
    """Acceptance: two clients, one identical request each, one evaluation."""

    def test_two_clients_one_evaluation(self):
        scheduling = GatedStubService()
        simulation = GatedStubService()
        server = ReproServer(
            port=0, scheduling=scheduling, simulation=simulation
        )
        request = scenario_requests(SCENARIO, ["static"], 1)[0]

        async def two_clients(host, port):
            first = await AsyncServerClient.connect(host, port)
            second = await AsyncServerClient.connect(host, port)
            try:
                task_a = asyncio.ensure_future(first.schedule(request))
                task_b = asyncio.ensure_future(second.schedule(request))
                # Wait until the follower has attached to the leader's
                # in-flight future, then release the (single) computation.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    stats = await first.stats()
                    if stats["requests"]["in_flight_dedup"] == 1:
                        break
                    await asyncio.sleep(0.01)
                scheduling.release.set()
                response_a, response_b = await asyncio.gather(task_a, task_b)
                stats = await first.stats()
                return response_a, response_b, stats
            finally:
                await first.close()
                await second.close()

        with ThreadedServer(server):
            response_a, response_b, stats = asyncio.run(
                two_clients(server.host, server.port)
            )
        assert len(scheduling.calls) == 1  # exactly one evaluation
        assert stats["schedule"]["computed"] == 1
        assert stats["requests"]["in_flight_dedup"] == 1
        assert {response_a.cache, response_b.cache} == {"disabled", "hit"}
        assert response_a.result_dict() == response_b.result_dict()


class TestGracefulShutdown:
    def test_shutdown_op_drains_inflight_work(self):
        scheduling = GatedStubService()
        simulation = GatedStubService()
        server = ReproServer(port=0, scheduling=scheduling, simulation=simulation)
        request = scenario_requests(SCENARIO, ["static"], 1)[0]

        async def scenario(host, port):
            worker = await AsyncServerClient.connect(host, port)
            control = await AsyncServerClient.connect(host, port)
            try:
                pending = asyncio.ensure_future(worker.schedule(request))
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if scheduling.calls:
                        break
                    await asyncio.sleep(0.01)
                answer = await control.shutdown()
                assert answer["status"] == "draining"
                scheduling.release.set()
                response = await pending
                return response
            finally:
                await worker.close()
                await control.close()

        threaded = ThreadedServer(server)
        with threaded:
            response = asyncio.run(scenario(server.host, server.port))
        assert response.schedulable is True
        assert len(scheduling.calls) == 1

    def test_new_work_rejected_while_draining(self):
        scheduling = GatedStubService()
        simulation = GatedStubService()
        server = ReproServer(port=0, scheduling=scheduling, simulation=simulation)
        requests = scenario_requests(SCENARIO, ["static", "gpiocp"], 1)

        async def scenario(host, port):
            worker = await AsyncServerClient.connect(host, port)
            try:
                pending = asyncio.ensure_future(worker.schedule(requests[0]))
                while not scheduling.calls:
                    await asyncio.sleep(0.01)
                server.dispatcher.draining = True
                with pytest.raises(ServerError) as exc_info:
                    await worker.schedule(requests[1])
                assert exc_info.value.code == ERR_SHUTTING_DOWN
                server.dispatcher.draining = False
                scheduling.release.set()
                return await pending
            finally:
                await worker.close()

        with ThreadedServer(server):
            response = asyncio.run(scenario(server.host, server.port))
        assert response.schedulable is True

    def test_remote_shutdown_can_be_disabled(self):
        with ThreadedServer(n_workers=1, port=0, allow_remote_shutdown=False) as threaded:
            with ServerClient(threaded.host, threaded.port) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.shutdown()
                assert exc_info.value.code == ERR_INVALID_REQUEST
                assert client.health()["status"] == "ok"


def new_children(before: set) -> list:
    return [child for child in multiprocessing.active_children() if child.pid not in before]


class TestPoolStart:
    """Entering a threaded server forks the workers of the pool it built from
    the entering thread.  Forked later, from the event loop's thread on the
    first computation, a worker copied the exec-status pipe of a subprocess
    this thread was starting, and the subprocess call never returned."""

    def test_entering_forks_every_worker_before_any_request(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with ThreadedServer(n_workers=2, port=0):
            assert len(new_children(before)) == 2
        assert new_children(before) == []

    def test_injected_services_fork_nothing_until_their_first_request(self):
        before = {child.pid for child in multiprocessing.active_children()}
        with SchedulingService(n_workers=2, cache=None) as scheduling, SimulationService(
            n_workers=2, cache=None, scheduling=scheduling
        ) as simulation:
            server = ReproServer(port=0, scheduling=scheduling, simulation=simulation)
            with ThreadedServer(server):
                assert new_children(before) == []
                with ServerClient(server.host, server.port) as client:
                    client.schedule(scenario_requests(SCENARIO, ["static"], 1)[0])
                assert len(new_children(before)) == 2
        assert new_children(before) == []


class TestAsyncClient:
    def test_concurrent_calls_share_one_connection(self, server):
        requests = scenario_requests(SCENARIO, ["static", "fps-offline"], 1)

        async def scenario():
            async with await AsyncServerClient.connect(
                server.host, server.port
            ) as connected:
                return await asyncio.gather(
                    *(connected.schedule(request) for request in requests),
                    connected.health(),
                )

        *responses, health = asyncio.run(scenario())
        assert health["status"] == "ok"
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
