"""Literal ``to_json()`` bytes of the four request/response envelopes.

Requests are pinned by the SHA-256 of their bytes (their embedded task sets
and scenarios run to kilobytes); responses are pinned literally.  The
responses are rebuilt by ``from_result_dict`` from stored results whose
numbers were decoded as the wrong type — int-valued floats, floats in
integer fields, ``1``/``0`` for booleans — so the pins also fix how each
field is coerced (``psi: 1`` must encode as ``1.0``).

The values were computed once and are literals on purpose: do not update
them to make a change pass.
"""

import hashlib

import pytest

from repro.core import MS, IOTask, TaskSet
from repro.runtime import SimulationRequest, SimulationResponse
from repro.service import ScheduleRequest, ScheduleResponse


def tiny_task_set() -> TaskSet:
    return TaskSet(
        [
            IOTask(name="tau0", wcet=2 * MS, period=20 * MS, ideal_offset=5 * MS, theta=5 * MS),
            IOTask(name="tau1", wcet=1 * MS, period=40 * MS, ideal_offset=10 * MS, theta=8 * MS),
        ]
    )


REQUESTS = {
    "schedule-v1-taskset": lambda: ScheduleRequest(
        task_set=tiny_task_set(), spec="ga:generations=3,seed=5", horizon=40 * MS,
        request_id="v1",
    ),
    "schedule-v2-scenario": lambda: ScheduleRequest(
        scenario="faulty-controller", system_index=2, spec="gpiocp", request_id="v2"
    ),
    "sim-drawn": lambda: SimulationRequest(
        scenario="short-hyperperiod", system_index=1, method="gpiocp",
        execution_model="cpu-instigated", horizon=120 * MS, max_events=500, seed=3,
        request_id="drawn",
    ),
    "sim-taskset": lambda: SimulationRequest(
        scenario="short-hyperperiod", task_set=tiny_task_set(), method="static",
        request_id="explicit",
    ),
}
REQUEST_DIGESTS = {
    "schedule-v1-taskset": "091fdc05f228c25eb789489f9e94d8fe3a779b4d8c28cedee5eaf86491294451",
    "schedule-v2-scenario": "2e184e280445ab5967f68acf9a476fc446fad7cfa6734e24ffca505288250753",
    "sim-drawn": "e1a2167220f3710de6f4b25c4f7202b9ebe48f372356aff5a225f524aac12fb2",
    "sim-taskset": "4b9d6165dd96235fdfb4eba1161bca6daef8718c7a2f4c5e4aa4a94dd7bf8799",
}

SCHEDULE_RESULT = {
    "spec": "static",
    "horizon": 40000.0,
    "schedulable": 1,
    "psi": 1,
    "upsilon": 0,
    "best_psi": 1,
    "best_upsilon": 2,
    "per_device": {"dev0": {"schedulable": True, "psi": 1, "n_jobs": 3, "schedule": None}},
}
SCHEDULE_JSON = (
    '{"data": {"cache": {"key": "0123456789abcdef", "status": "hit"}, "id": "r1", '
    '"result": {"best_psi": 1.0, "best_upsilon": 2.0, "horizon": 40000, '
    '"per_device": {"dev0": {"n_jobs": 3, "psi": 1, "schedulable": true, "schedule": null}}, '
    '"psi": 1.0, "schedulable": true, "spec": "static", "upsilon": 0.0}, '
    '"timing": {"elapsed_s": 2}}, "kind": "repro/schedule-response", "version": 1}'
)

SIMULATION_RESULT = {
    "scenario": "short-hyperperiod",
    "method": "static",
    "execution_model": "dedicated-controller",
    "system_index": 1.0,
    "horizon": 360000.0,
    "schedulable": 1,
    "accuracy": 1,
    "psi": 1,
    "upsilon": 0,
    "offline_psi": 1,
    "offline_upsilon": 0,
    "matches_offline": 0,
    "executed_jobs": 12.0,
    "skipped_jobs": 0.0,
    "faults_detected": 0.0,
    "mean_noc_latency": 3,
    "max_noc_latency": 5.0,
    "events_processed": 40.0,
    "exhausted": 0,
    "trace": {"events": {"start": 12}},
}
SIMULATION_JSON = (
    '{"data": {"cache": {"key": "0123456789abcdef", "status": "hit"}, "id": "r1", '
    '"result": {"accuracy": 1.0, "events_processed": 40, "executed_jobs": 12, '
    '"execution_model": "dedicated-controller", "exhausted": false, "faults_detected": 0, '
    '"horizon": 360000, "matches_offline": false, "max_noc_latency": 5, '
    '"mean_noc_latency": 3.0, "method": "static", "offline_psi": 1.0, '
    '"offline_upsilon": 0.0, "psi": 1.0, "scenario": "short-hyperperiod", '
    '"schedulable": true, "skipped_jobs": 0, "system_index": 1, '
    '"trace": {"events": {"start": 12}}, "upsilon": 0.0}, '
    '"timing": {"elapsed_s": 2}}, "kind": "repro/sim-response", "version": 1}'
)

PROVENANCE = {"request_id": "r1", "cache": "hit", "cache_key": "0123456789abcdef", "elapsed_s": 2}


class TestRequestBytes:
    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_to_json_digest(self, name):
        text = REQUESTS[name]().to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == REQUEST_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_round_trip_keeps_the_bytes(self, name):
        request = REQUESTS[name]()
        rebuilt = type(request).from_json(request.to_json())
        assert rebuilt.to_json() == request.to_json()
        assert rebuilt.content_key() == request.content_key()

    def test_versions(self):
        assert REQUESTS["schedule-v1-taskset"]().to_dict()["version"] == 1
        assert REQUESTS["schedule-v2-scenario"]().to_dict()["version"] == 2


class TestResponseBytes:
    def test_schedule_response(self):
        response = ScheduleResponse.from_result_dict(SCHEDULE_RESULT, **PROVENANCE)
        assert response.to_json() == SCHEDULE_JSON
        assert ScheduleResponse.from_json(SCHEDULE_JSON) == response

    def test_simulation_response(self):
        response = SimulationResponse.from_result_dict(SIMULATION_RESULT, **PROVENANCE)
        assert response.to_json() == SIMULATION_JSON
        assert SimulationResponse.from_json(SIMULATION_JSON) == response

    @pytest.mark.parametrize("cls", [ScheduleResponse, SimulationResponse])
    def test_missing_mapping_fields_default_to_empty(self, cls):
        result = dict(SCHEDULE_RESULT if cls is ScheduleResponse else SIMULATION_RESULT)
        mapping = "per_device" if cls is ScheduleResponse else "trace"
        del result[mapping]
        response = cls.from_result_dict(result)
        assert getattr(response, mapping) == {}
        assert (response.request_id, response.cache, response.cache_key) == (
            None, "disabled", None
        )
        assert response.elapsed_s == 0.0

    @pytest.mark.parametrize("cls", [ScheduleResponse, SimulationResponse])
    def test_missing_scalar_field_raises_key_error(self, cls):
        result = dict(SCHEDULE_RESULT if cls is ScheduleResponse else SIMULATION_RESULT)
        del result["psi"]
        with pytest.raises(KeyError):
            cls.from_result_dict(result)
