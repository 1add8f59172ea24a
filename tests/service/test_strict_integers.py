"""Integer fields read from outside input refuse bools, floats and strings.

JSON has no integer type of its own, so ``system_index``, ``horizon``,
``max_events`` and ``seed`` can arrive as ``2.7``, ``true`` or ``"3"``.
``int()`` would quietly turn those into 2, 1 and 3 (and a daemon would
compute and cache the wrong question), so every request envelope rejects
them with ``ValueError`` — checked through ``from_dict``, through a batch
CLI and through the daemon.
"""

import json

import pytest

from repro.runtime import SimulationRequest
from repro.runtime.__main__ import main as runtime_main
from repro.server import ServerClient, ServerError, ThreadedServer
from repro.server.__main__ import main as server_main
from repro.server.protocol import ERR_INVALID_REQUEST, OP_SCHEDULE, OP_SIMULATE
from repro.service import ScheduleRequest
from repro.service.__main__ import main as service_main

SCENARIO = "short-hyperperiod"


def schedule_payload(**data):
    payload = ScheduleRequest(scenario=SCENARIO, spec="static", request_id="r").to_dict()
    payload["data"].update(data)
    return payload


def simulation_payload(**data):
    payload = SimulationRequest(scenario=SCENARIO, request_id="r").to_dict()
    payload["data"].update(data)
    return payload


MALFORMED = [
    (ScheduleRequest, schedule_payload, "system_index", 2.7),
    (ScheduleRequest, schedule_payload, "system_index", True),
    (ScheduleRequest, schedule_payload, "system_index", "3"),
    (ScheduleRequest, schedule_payload, "horizon", 100.5),
    (ScheduleRequest, schedule_payload, "horizon", True),
    (ScheduleRequest, schedule_payload, "horizon", "360000"),
    (SimulationRequest, simulation_payload, "system_index", 2.7),
    (SimulationRequest, simulation_payload, "system_index", True),
    (SimulationRequest, simulation_payload, "system_index", "3"),
    (SimulationRequest, simulation_payload, "horizon", 100.5),
    (SimulationRequest, simulation_payload, "horizon", True),
    (SimulationRequest, simulation_payload, "max_events", 2.5),
    (SimulationRequest, simulation_payload, "max_events", False),
    (SimulationRequest, simulation_payload, "seed", True),
    (SimulationRequest, simulation_payload, "seed", 7.0),
    (SimulationRequest, simulation_payload, "seed", "7"),
]


class TestFromDict:
    @pytest.mark.parametrize("cls, build, name, value", MALFORMED)
    def test_rejects_bool_float_and_string(self, cls, build, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            cls.from_dict(build(**{name: value}))

    @pytest.mark.parametrize(
        "cls, build", [(ScheduleRequest, schedule_payload), (SimulationRequest, simulation_payload)]
    )
    def test_integers_and_nulls_still_read(self, cls, build):
        request = cls.from_dict(build(system_index=2, horizon=360000))
        assert (request.system_index, request.horizon) == (2, 360000)
        assert cls.from_dict(build(horizon=None)).horizon is None
        payload = build()
        del payload["data"]["system_index"]
        assert cls.from_dict(payload).system_index == 0

    def test_simulation_budget_and_seed_still_read(self):
        request = SimulationRequest.from_dict(simulation_payload(max_events=500, seed=0))
        assert (request.max_events, request.seed) == (500, 0)

    @pytest.mark.parametrize("cls", [ScheduleRequest, SimulationRequest])
    def test_data_must_be_an_object(self, cls):
        kind = cls.KIND
        with pytest.raises(ValueError, match="data must be an object"):
            cls.from_dict({"kind": kind, "version": 1, "data": [1, 2]})


class TestBatchCli:
    def test_service_cli_names_the_line(self, tmp_path):
        lines = [schedule_payload(), schedule_payload(system_index=True)]
        path = tmp_path / "requests.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(SystemExit) as stop:
            service_main([str(path)])
        assert stop.value.code == (
            f"{path}:2: invalid request: system_index must be an integer, got True"
        )

    def test_runtime_cli_names_the_line(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(simulation_payload(seed=1.5)) + "\n")
        with pytest.raises(SystemExit) as stop:
            runtime_main([str(path)])
        assert stop.value.code == f"{path}:1: invalid request: seed must be an integer, got 1.5"


class TestDaemon:
    def test_daemon_answers_invalid_request(self):
        with ThreadedServer(n_workers=1, port=0) as threaded:
            with ServerClient(threaded.host, threaded.port) as client:
                with pytest.raises(ServerError) as schedule_error:
                    client.call(OP_SCHEDULE, schedule_payload(system_index=True))
                with pytest.raises(ServerError) as simulate_error:
                    client.call(OP_SIMULATE, simulation_payload(max_events=2.5))
                stats = client.stats()
        assert schedule_error.value.code == ERR_INVALID_REQUEST
        assert "system_index must be an integer, got True" in schedule_error.value.message
        assert simulate_error.value.code == ERR_INVALID_REQUEST
        assert "max_events must be an integer, got 2.5" in simulate_error.value.message
        # Nothing was computed, so nothing wrong was cached.
        assert stats["schedule"]["computed"] == 0
        assert stats["simulation"]["computed"] == 0

    def test_request_cli_reports_the_daemon_answer(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(schedule_payload(system_index=True)) + "\n")
        with ThreadedServer(n_workers=1, port=0) as threaded:
            address = f"{threaded.host}:{threaded.port}"
            with pytest.raises(SystemExit) as stop:
                server_main(["request", "--server", address, str(path)])
        assert stop.value.code.startswith(f"{address}: {ERR_INVALID_REQUEST}: ")
        assert stop.value.code.endswith("system_index must be an integer, got True")
