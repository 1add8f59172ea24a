"""Warm-worker fast path for the simulation service: identical at any state.

Mirrors the scheduling-side warm-worker tests: responses must be
byte-identical cold vs warm, at any worker count and chunk size, with the
per-chunk schedule-cache reuse and slim scenario payloads invisible except in
speed.
"""

import pytest

from repro.core.memo import reset_memos
from repro.runtime import SimulationRequest, SimulationService
from repro.service.core import execute_chunk
from repro.scenario import Scenario, WorkloadSpec
from repro.taskgen import GeneratorConfig


@pytest.fixture(autouse=True)
def cold_memos():
    reset_memos()
    yield
    reset_memos()


@pytest.fixture(scope="module")
def tiny_scenario():
    return Scenario(
        name="tiny",
        workload=WorkloadSpec(
            utilisation=0.4,
            generator=GeneratorConfig(
                hyperperiod_ms=360, min_period_ms=60, max_period_ms=120
            ),
        ),
    )


def request_batch(scenario):
    return [
        SimulationRequest(
            scenario=scenario,
            system_index=index,
            execution_model=model,
            request_id=f"{index}/{model}",
        )
        for index in range(2)
        for model in ("dedicated-controller", "cpu-instigated")
    ]


def run_batch(scenario, **service_kwargs):
    with SimulationService(cache=None, **service_kwargs) as service:
        return [
            response.result_dict()
            for response in service.submit_batch(request_batch(scenario))
        ]


class TestByteIdentity:
    def test_cold_vs_warm_serial(self, tiny_scenario):
        cold = run_batch(tiny_scenario)
        warm = run_batch(tiny_scenario)  # memos stayed warm in-process
        assert warm == cold

    @pytest.mark.parametrize("n_workers", [2])
    @pytest.mark.parametrize("chunksize", [1, 4])
    def test_any_worker_count_and_chunk_size(
        self, tiny_scenario, n_workers, chunksize
    ):
        reference = run_batch(tiny_scenario)
        reset_memos()
        pooled = run_batch(tiny_scenario, n_workers=n_workers, chunksize=chunksize)
        assert pooled == reference

    def test_warm_pool_rerun_is_identical(self, tiny_scenario):
        with SimulationService(cache=None, n_workers=2, chunksize=2) as service:
            first = [
                r.result_dict() for r in service.submit_batch(request_batch(tiny_scenario))
            ]
            second = [
                r.result_dict() for r in service.submit_batch(request_batch(tiny_scenario))
            ]
        assert second == first


class TestSlimPayloads:
    def test_entries_round_trip(self, tiny_scenario):
        scenarios = {}
        for request in request_batch(tiny_scenario):
            entry = SimulationService.slim(request, scenarios)
            rebuilt = SimulationService.inflate(entry, scenarios)
            assert rebuilt == request
            assert rebuilt.content_key() == request.content_key()
        assert list(scenarios) == [tiny_scenario.content_key()]

    def test_chunk_worker_matches_serial_execution(self, tiny_scenario):
        requests = request_batch(tiny_scenario)
        reference = run_batch(tiny_scenario)
        scenarios = {}
        entries = [
            (
                SimulationService.slim(request, scenarios),
                request.content_key(),
                f"t-{index}",
                None,
            )
            for index, request in enumerate(requests)
        ]
        outcomes, snapshot = execute_chunk(
            (SimulationService, None, scenarios, entries, None)
        )
        assert [response.result_dict() for response, _ in outcomes] == reference
        assert [trace["trace_id"] for _, trace in outcomes] == [
            f"t-{index}" for index in range(len(requests))
        ]
        assert "families" in snapshot

    def test_chunk_worker_runs_shipped_schedules(self, tiny_scenario):
        # What pool_context ships when the scheduling service already holds
        # a job's schedule: the worker simulates it without rescheduling.
        requests = request_batch(tiny_scenario)
        reference = run_batch(tiny_scenario)
        with SimulationService(cache=None) as service:
            service.scheduling.submit_batch([r.schedule_request() for r in requests])
            context, schedules = service.pool_context(requests)
        assert context is None  # a memory-only schedule cache has no spec
        assert all(schedule is not None for schedule in schedules)
        scenarios = {}
        entries = [
            (SimulationService.slim(request, scenarios), request.content_key(), "t", schedule)
            for request, schedule in zip(requests, schedules)
        ]
        outcomes, snapshot = execute_chunk(
            (SimulationService, context, scenarios, entries, None)
        )
        assert [response.result_dict() for response, _ in outcomes] == reference
        phases = [phase["phase"] for _, trace in outcomes for phase in trace["phases"]]
        assert "schedule" not in phases
