"""Request payloads, flags and campaign specs name registered schedulers and
execution models, with options their factories accept.

A payload naming anything else, or an option the factory rejects, is an
invalid request where it is read: the batch CLIs stop at
``source:line: invalid request: …`` before computing anything, and the
daemon answers ``invalid-request`` without admitting it.  A ``--methods`` or
``--execution-models`` flag, or a campaign spec, doing so is a usage error
(exit status 2) before anything runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import build_campaign

from repro.runtime import SimulationRequest
from repro.runtime.__main__ import main as runtime_main
from repro.server import ServerClient, ServerError, ThreadedServer
from repro.service import ScheduleRequest
from repro.service.__main__ import main as service_main

SCENARIO = "short-hyperperiod"
REPO_ROOT = Path(__file__).resolve().parents[2]


def schedule_payload(spec) -> dict:
    payload = ScheduleRequest(scenario=SCENARIO, spec="static", request_id="r").to_dict()
    payload["data"]["spec"] = spec
    return payload


#: A registered scheduler and a registered model, each with an option its
#: factory rejects, and the start of the error naming the spec.
GA_POPULATION = {"name": "ga", "options": {"population": 8}}
GA_POPULATION_ERROR = "scheduler spec 'ga:population=8': scheduler 'ga' "
JITER_WINDOW = {"name": "cpu-instigated", "options": {"jiter_window": 2}}
JITER_WINDOW_ERROR = "execution model spec 'cpu-instigated:jiter_window=2': "


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

    @pytest.mark.parametrize(
        "parse, payload, message",
        [
            (ScheduleRequest.from_dict, schedule_payload(GA_POPULATION), GA_POPULATION_ERROR),
            (SimulationRequest.from_dict, simulation_payload(method=GA_POPULATION),
             GA_POPULATION_ERROR),
            (SimulationRequest.from_dict, simulation_payload(model=JITER_WINDOW),
             JITER_WINDOW_ERROR),
            (SimulationRequest.from_dict,
             simulation_payload(model={"name": "cpu-instigated", "options": {"jitter_window": 0}}),
             "execution model spec 'cpu-instigated:jitter_window=0': jitter_window must be"),
        ],
        ids=["schedule-spec", "simulation-method", "simulation-model", "model-value"],
    )
    def test_rejected_option(self, parse, payload, message):
        with pytest.raises(ValueError) as error:
            parse(payload)
        assert str(error.value).startswith(message)

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

    @pytest.mark.parametrize(
        "main, payload, message",
        [
            (service_main, schedule_payload(GA_POPULATION), GA_POPULATION_ERROR),
            (runtime_main, simulation_payload(model=JITER_WINDOW), JITER_WINDOW_ERROR),
        ],
        ids=["service", "runtime-model"],
    )
    def test_a_rejected_option_stops_at_the_line(self, tmp_path, main, payload, message):
        path = tmp_path / "requests.jsonl"
        output = tmp_path / "responses.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(SystemExit) as stop:
            main([str(path), "-o", str(output)])
        assert stop.value.code.startswith(f"{path}:1: invalid request: {message}")
        assert "\n" not in stop.value.code
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
        assert self.rejection(payload) == (f"invalid-request: {message}", (0, 0))

    def test_a_rejected_option_is_not_admitted(self):
        error, counts = self.rejection(schedule_payload(GA_POPULATION))
        assert error.startswith(f"invalid-request: invalid ScheduleRequest: {GA_POPULATION_ERROR}")
        assert counts == (0, 0)

    @staticmethod
    def rejection(payload):
        """The daemon's error for ``payload`` and its (admitted, failed) counts."""
        with ThreadedServer(n_workers=1, port=0) as threaded:
            dispatcher = threaded.server.dispatcher
            with ServerClient(threaded.host, threaded.port) as client:
                with pytest.raises(ServerError) as error:
                    client.submit_envelopes([payload])
            counts = (dispatcher.admitted, dispatcher.failed)
        return str(error.value), counts


def spec_file(directory: Path, method="static", model="dedicated-controller") -> str:
    """A campaign spec file naming ``method`` and ``model`` (names or spec dicts)."""
    payload = build_campaign(scenarios=(SCENARIO,), execution_models=("cpu-instigated",)).to_dict()
    data = payload["data"]
    data["methods"][0] = method if isinstance(method, dict) else {"name": method, "options": {}}
    data["runtime"]["execution_models"][0] = (
        model if isinstance(model, dict) else {"name": model, "options": {}}
    )
    path = directory / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestUsageErrors:
    """Each command exits 2 with one error line naming the flag (or the spec)
    and the name, prints no traceback and leaves no artifact directory."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["repro.service", "--scenario", SCENARIO, "--methods", "static", "nosuch"],
                "--methods: unknown scheduler 'nosuch'; registered: ",
            ),
            (
                ["repro.runtime", "--scenario", SCENARIO, "--methods", "nosuch"],
                "--methods: unknown scheduler 'nosuch'; registered: ",
            ),
            (
                ["repro.runtime", "--scenario", SCENARIO, "--execution-models", "nosuch"],
                "--execution-models: unknown execution model 'nosuch'; registered: ",
            ),
            (
                ["repro.server", "request", "--server", "127.0.0.1:9", "--scenario", SCENARIO,
                 "--methods", "nosuch"],
                "--methods: unknown scheduler 'nosuch'; registered: ",
            ),
            (
                ["repro.campaign", "run", "--methods", "nosuch", "--artifact-dir", "{art}"],
                "--methods: unknown scheduler 'nosuch'; registered: ",
            ),
            (
                ["repro.campaign", "run", "--execution-models", "cpu-instigated", "nosuch",
                 "--artifact-dir", "{art}"],
                "--execution-models: unknown execution model 'nosuch'; registered: ",
            ),
            (
                ["repro.experiments", "fig5", "--methods", "nosuch", "--artifact-dir", "{art}"],
                "--methods: unknown scheduler 'nosuch'; registered: ",
            ),
            (
                ["repro.campaign", "run", "{spec}", "--artifact-dir", "{art}"],
                "invalid campaign spec: unknown scheduler 'nosuch'",
            ),
            (
                ["repro.campaign", "run", "{model_spec}", "--artifact-dir", "{art}"],
                "invalid campaign spec: unknown execution model 'nosuch'",
            ),
            (
                ["repro.service", "--campaign", "{spec}"],
                "--campaign: unknown scheduler 'nosuch'",
            ),
            (
                ["repro.experiments", "--campaign", "{spec}", "--artifact-dir", "{art}"],
                "--campaign: unknown scheduler 'nosuch'",
            ),
        ],
        ids=[
            "service-methods",
            "runtime-methods",
            "runtime-models",
            "server-request-methods",
            "campaign-methods",
            "campaign-models",
            "experiments-methods",
            "campaign-spec-method",
            "campaign-spec-model",
            "service-campaign",
            "experiments-campaign",
        ],
    )
    def test_unknown_name(self, tmp_path, argv, message):
        (tmp_path / "m").mkdir()
        names = {
            "spec": spec_file(tmp_path, method="nosuch"),
            "model_spec": spec_file(tmp_path / "m", model="nosuch"),
        }
        self.assert_usage_error(tmp_path, argv, names, message, "nosuch")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["repro.service", "--scenario", SCENARIO, "--methods", "ga:population=8"],
                f"--methods: {GA_POPULATION_ERROR}",
            ),
            (
                ["repro.campaign", "run", "--methods", "ga:population=8", "--artifact-dir",
                 "{art}"],
                f"--methods: {GA_POPULATION_ERROR}",
            ),
            (
                ["repro.runtime", "--scenario", SCENARIO, "--execution-models",
                 "cpu-instigated:jiter_window=2"],
                f"--execution-models: {JITER_WINDOW_ERROR}",
            ),
            (
                ["repro.campaign", "run", "{spec}", "--artifact-dir", "{art}"],
                f"invalid campaign spec: {GA_POPULATION_ERROR}",
            ),
        ],
        ids=["service-methods", "campaign-methods", "runtime-models", "campaign-spec-method"],
    )
    def test_rejected_option(self, tmp_path, argv, message):
        names = {"spec": spec_file(tmp_path, method=GA_POPULATION)}
        self.assert_usage_error(tmp_path, argv, names, message, "spec '")

    @staticmethod
    def assert_usage_error(tmp_path, argv, names, message, marker):
        names = dict(names, art=str(tmp_path / "art"))
        done = subprocess.run(
            [sys.executable, "-m", *(arg.format(**names) for arg in argv)],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        (line,) = [line for line in done.stderr.splitlines() if marker in line]
        assert line.startswith(f"python -m {argv[0]}: error: {message}")
        assert done.stdout == ""
        assert not (tmp_path / "art").exists()
