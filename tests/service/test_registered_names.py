"""Request payloads name registered schedulers and execution models.

A payload naming anything else is an invalid request where it is read: the
batch CLIs stop at ``source:line: invalid request: …`` before computing
anything, and the daemon answers ``invalid-request`` without admitting it.
"""

import json

import pytest

from repro.runtime import SimulationRequest
from repro.runtime.__main__ import main as runtime_main
from repro.server import ServerClient, ServerError, ThreadedServer
from repro.service import ScheduleRequest
from repro.service.__main__ import main as service_main

SCENARIO = "short-hyperperiod"


def schedule_payload(spec) -> dict:
    payload = ScheduleRequest(scenario=SCENARIO, spec="static", request_id="r").to_dict()
    payload["data"]["spec"] = spec
    return payload


def simulation_payload(method="static", model="dedicated-controller") -> dict:
    payload = SimulationRequest(scenario=SCENARIO, request_id="r").to_dict()
    payload["data"]["method"] = method
    payload["data"]["execution_model"] = model
    return payload


class TestPayloadParsing:
    @pytest.mark.parametrize("spec", [{"name": "nosuch", "options": {}}, "nosuch:seed=1"])
    def test_unknown_scheduler(self, spec):
        with pytest.raises(ValueError, match="^unknown scheduler 'nosuch'$"):
            ScheduleRequest.from_dict(schedule_payload(spec))

    def test_unknown_simulation_method(self):
        with pytest.raises(ValueError, match="^unknown scheduler 'nosuch'$"):
            SimulationRequest.from_dict(simulation_payload(method="nosuch"))

    def test_unknown_execution_model(self):
        with pytest.raises(ValueError, match="^unknown execution model 'nosuch'$"):
            SimulationRequest.from_dict(simulation_payload(model={"name": "nosuch"}))

    def test_aliases_are_registered_names(self):
        assert ScheduleRequest.from_dict(schedule_payload("heuristic")).spec.name == "heuristic"
        request = SimulationRequest.from_dict(simulation_payload("fps", "remote-cpu"))
        assert (request.method.name, request.execution_model.name) == ("fps", "remote-cpu")


class TestBatchClis:
    @pytest.mark.parametrize(
        "main, payload, message",
        [
            (service_main, schedule_payload("nosuch"), "unknown scheduler 'nosuch'"),
            (runtime_main, simulation_payload(method="nosuch"), "unknown scheduler 'nosuch'"),
            (runtime_main, simulation_payload(model="nosuch"), "unknown execution model 'nosuch'"),
        ],
        ids=["service", "runtime-method", "runtime-model"],
    )
    def test_stop_at_the_line(self, tmp_path, main, payload, message):
        path = tmp_path / "requests.jsonl"
        output = tmp_path / "responses.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(SystemExit) as stop:
            main([str(path), "-o", str(output)])
        assert stop.value.code == f"{path}:1: invalid request: {message}"
        assert not output.exists()


class TestDaemon:
    @pytest.mark.parametrize(
        "payload, message",
        [
            (schedule_payload("nosuch"), "invalid ScheduleRequest: unknown scheduler 'nosuch'"),
            (
                simulation_payload(model="nosuch"),
                "invalid SimulationRequest: unknown execution model 'nosuch'",
            ),
        ],
        ids=["schedule", "simulate"],
    )
    def test_invalid_request_is_not_admitted(self, payload, message):
        with ThreadedServer(n_workers=1, port=0) as threaded:
            dispatcher = threaded.server.dispatcher
            with ServerClient(threaded.host, threaded.port) as client:
                with pytest.raises(ServerError) as error:
                    client.submit_envelopes([payload])
            counts = (dispatcher.admitted, dispatcher.failed)
        assert str(error.value) == f"invalid-request: {message}"
        assert counts == (0, 0)
