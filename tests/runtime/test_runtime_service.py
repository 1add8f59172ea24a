"""Exactness, worker-invariance and caching tests for the simulation service."""

import json
from collections import Counter

import pytest

from repro.core import IOJob, Schedule, ScheduleEntry
from repro.core.serialization import canonical_json
from repro.hardware import TableEntry
from repro.runtime import (
    SimulationCache,
    SimulationRequest,
    SimulationService,
    derive_execution_seed,
    execute_simulation,
)
from repro.runtime.models import BUILTIN_EXECUTION_MODELS, ExecutionOutcome
from repro.scenario import Scenario, WorkloadSpec, create_scenario, materialize
from repro.service import SchedulingService
from repro.service.service import execute_request
from repro.taskgen import GeneratorConfig


@pytest.fixture(scope="module")
def tiny_scenario():
    """A small, fast scenario every test in this module shares."""
    return Scenario(
        name="tiny",
        workload=WorkloadSpec(
            utilisation=0.4,
            generator=GeneratorConfig(hyperperiod_ms=360, min_period_ms=60, max_period_ms=120),
        ),
    )


def request_batch(scenario):
    """A batch spanning systems × models, with one duplicate at the end."""
    requests = [
        SimulationRequest(
            scenario=scenario,
            system_index=index,
            execution_model=model,
            request_id=f"{index}/{model}",
        )
        for index in range(2)
        for model in ("dedicated-controller", "cpu-instigated")
    ]
    requests.append(
        SimulationRequest(
            scenario=scenario,
            system_index=0,
            execution_model="dedicated-controller",
            request_id="duplicate",
        )
    )
    return requests


def counting_init(built, cls):
    """``cls.__init__``, counting each call under the class's name."""
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built[cls.__name__] += 1
        init(self, *args, **kwargs)

    return counted


class TestExecuteSimulation:
    def test_pure_in_the_request(self, tiny_scenario):
        request = SimulationRequest(scenario=tiny_scenario, execution_model="cpu-instigated")
        a = execute_simulation(request)
        b = execute_simulation(request)
        assert a.result_dict() == b.result_dict()

    def test_start_time_deviations_computed_once_per_response(self, tiny_scenario, monkeypatch):
        calls = []
        original = ExecutionOutcome.start_time_deviations

        def counted(outcome):
            calls.append(outcome)
            return original(outcome)

        monkeypatch.setattr(ExecutionOutcome, "start_time_deviations", counted)
        responses = [execute_simulation(request) for request in request_batch(tiny_scenario)]
        assert all(response.schedulable for response in responses)
        assert len(calls) == len(responses) == 5

    @pytest.mark.parametrize("model", BUILTIN_EXECUTION_MODELS)
    def test_a_cell_builds_no_job_entry_schedule_or_table_entry(self, model, monkeypatch):
        """On the 476-job partition, ``execute_simulation`` decodes the stored
        schedule into vectors and runs, scores and answers from them; the
        object path (``device_schedules`` and ``IOController.run``) builds
        every one of these objects."""
        scenario = (
            create_scenario("paper-default").with_utilisation(0.7).with_workload(n_tasks=40)
        )
        request = SimulationRequest(scenario=scenario, method="static", execution_model=model)
        stored = execute_request(request.schedule_request())
        execute_simulation(request, schedule_response=stored)  # warms the workload memo
        built = Counter()
        for cls in (IOJob, ScheduleEntry, Schedule, TableEntry):
            monkeypatch.setattr(cls, "__init__", counting_init(built, cls))
        response = execute_simulation(request, schedule_response=stored)
        assert response.executed_jobs == 476
        assert built == Counter()

        system = materialize(scenario, 0)
        controller = system.platform.controller
        controller.preload_taskset(system.task_set)
        controller.load_system_schedule(stored.device_schedules(system.task_set))
        controller.run()
        assert set(built) == {"IOJob", "ScheduleEntry", "Schedule", "TableEntry"}

    def test_scheduling_service_path_is_bit_identical(self, tiny_scenario):
        request = SimulationRequest(scenario=tiny_scenario, execution_model="cpu-instigated")
        direct = execute_simulation(request)
        with SchedulingService() as scheduling:
            via_service = execute_simulation(request, scheduling=scheduling)
        assert direct.result_dict() == via_service.result_dict()

    def test_unschedulable_scenario_reports_not_schedulable(self):
        overloaded = Scenario(
            name="overloaded",
            workload=WorkloadSpec(
                utilisation=0.95,
                generator=GeneratorConfig(
                    hyperperiod_ms=360, min_period_ms=60, max_period_ms=120, n_devices=1
                ),
            ),
        )
        response = execute_simulation(
            SimulationRequest(scenario=overloaded, method="fps-offline")
        )
        assert not response.schedulable
        assert response.executed_jobs == 0
        assert response.accuracy == 0.0
        assert not response.matches_offline

    def test_derived_seed_is_stable_and_request_specific(self, tiny_scenario):
        a = SimulationRequest(scenario=tiny_scenario)
        b = SimulationRequest(scenario=tiny_scenario, system_index=1)
        assert derive_execution_seed(a) == derive_execution_seed(a)
        assert derive_execution_seed(a) != derive_execution_seed(b)

    def test_max_events_exhaustion_lands_on_the_response(self, tiny_scenario):
        response = execute_simulation(
            SimulationRequest(scenario=tiny_scenario, max_events=3)
        )
        assert response.exhausted
        assert response.events_processed == 3

    def test_max_events_exhaustion_on_the_cpu_instigated_path(self, tiny_scenario):
        response = execute_simulation(
            SimulationRequest(
                scenario=tiny_scenario,
                execution_model="cpu-instigated",
                max_events=3,
            )
        )
        assert response.exhausted
        assert response.events_processed <= 3
        assert response.skipped_jobs > 0

    def test_precomputed_schedule_response_is_bit_identical(self, tiny_scenario):
        from repro.service.service import execute_request

        request = SimulationRequest(scenario=tiny_scenario, execution_model="cpu-instigated")
        direct = execute_simulation(request)
        shipped = execute_simulation(
            request, schedule_response=execute_request(request.schedule_request())
        )
        assert shipped.result_dict() == direct.result_dict()

    def test_trace_summary_is_structured(self, tiny_scenario):
        response = execute_simulation(SimulationRequest(scenario=tiny_scenario))
        assert set(response.trace) == {"event_counts", "max_deviation", "mean_deviation"}
        assert response.trace["max_deviation"] == 0  # dedicated controller is exact


class TestSimulationService:
    def test_batch_dedups_and_stamps_provenance(self, tiny_scenario):
        with SimulationService() as service:
            responses = service.submit_batch(request_batch(tiny_scenario))
            assert [r.cache for r in responses] == ["miss"] * 4 + ["hit"]
            assert service.computed == 4
            # The duplicate's answer is the first occurrence's, re-labelled.
            assert responses[-1].result_dict() == responses[0].result_dict()
            assert responses[-1].request_id == "duplicate"

    def test_cache_hits_across_batches(self, tiny_scenario):
        with SimulationService() as service:
            service.submit_batch(request_batch(tiny_scenario))
            again = service.submit_batch(request_batch(tiny_scenario))
            assert all(r.cache == "hit" for r in again)
            assert service.computed == 4

    def test_disabled_cache_still_dedups_within_a_batch(self, tiny_scenario):
        with SimulationService(cache=None) as service:
            responses = service.submit_batch(request_batch(tiny_scenario))
            assert all(r.cache == "disabled" for r in responses)
            assert service.computed == 4

    def test_persistent_cache_resumes_with_zero_recompute(self, tiny_scenario, tmp_path):
        requests = request_batch(tiny_scenario)
        with SimulationService(cache_dir=str(tmp_path / "sim")) as service:
            cold = service.submit_batch(requests)
            assert service.computed == 4
        # A fresh service over the same directory: nothing is recomputed.
        with SimulationService(cache_dir=str(tmp_path / "sim")) as service:
            warm = service.submit_batch(requests)
            assert service.computed == 0
            assert all(r.cache == "hit" for r in warm)
        assert [r.result_dict() for r in warm] == [r.result_dict() for r in cold]

    def test_reports_are_byte_identical_at_1_and_4_workers(self, tiny_scenario):
        requests = request_batch(tiny_scenario)
        with SimulationService(n_workers=1) as serial:
            serial_report = canonical_json(
                [r.result_dict() for r in serial.submit_batch(requests)]
            )
        with SimulationService(n_workers=4) as pooled:
            pooled_report = canonical_json(
                [r.result_dict() for r in pooled.submit_batch(requests)]
            )
        assert serial_report == pooled_report

    def test_pooled_workers_share_a_disk_schedule_cache(self, tiny_scenario, tmp_path):
        schedule_dir = tmp_path / "schedules"
        requests = request_batch(tiny_scenario)
        with SimulationService(
            n_workers=2, schedule_cache_dir=str(schedule_dir)
        ) as service:
            responses = service.submit_batch(requests)
        assert len(responses) == 5
        # The workers persisted the schedules they computed.
        assert list(schedule_dir.glob("*.json"))

    def test_shared_scheduling_service_reuses_cached_schedules(self, tiny_scenario):
        request = SimulationRequest(scenario=tiny_scenario)
        with SchedulingService() as scheduling:
            # Prime the schedule cache with the exact question the simulation asks.
            scheduling.submit(request.schedule_request())
            computed_before = scheduling.computed
            with SimulationService(scheduling=scheduling) as service:
                service.submit(request)
            assert scheduling.computed == computed_before  # schedule cache hit

    def test_pooled_workers_receive_memory_cached_schedules(self, tiny_scenario):
        # Even with a memory-only schedule cache, schedules the dispatching
        # service already holds ship with the pooled jobs instead of being
        # recomputed — and the results stay identical to the serial path.
        requests = request_batch(tiny_scenario)
        with SchedulingService() as scheduling:
            scheduling.submit_batch([r.schedule_request() for r in requests])
            computed_before = scheduling.computed
            with SimulationService(n_workers=2, scheduling=scheduling) as pooled:
                pooled_responses = pooled.submit_batch(requests)
            assert scheduling.computed == computed_before
        with SimulationService() as serial:
            serial_responses = serial.submit_batch(requests)
        assert [r.result_dict() for r in pooled_responses] == [
            r.result_dict() for r in serial_responses
        ]

    def test_explicit_cache_object_is_shared(self, tiny_scenario):
        cache = SimulationCache()
        request = SimulationRequest(scenario=tiny_scenario)
        with SimulationService(cache=cache) as first:
            first.submit(request)
        with SimulationService(cache=cache) as second:
            response = second.submit(request)
        assert response.cache == "hit"
        assert second.computed == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            SimulationService(n_workers=0)
        with pytest.raises(ValueError, match="not both"):
            SimulationService(cache_dir="x", cache=None)
        with pytest.raises(ValueError, match="not both"):
            SimulationService(
                scheduling=SchedulingService(), schedule_cache_dir="y"
            )


class TestCacheEnvelope:
    def test_sim_cache_entries_have_their_own_kind(self, tiny_scenario, tmp_path):
        request = SimulationRequest(scenario=tiny_scenario)
        with SimulationService(cache_dir=str(tmp_path)) as service:
            service.submit(request)
        (entry_path,) = tmp_path.glob("*.json")
        payload = json.loads(entry_path.read_text())
        assert payload["kind"] == "repro/sim-cache-entry"

    def test_schedule_cache_entry_is_not_misread(self, tiny_scenario, tmp_path):
        # A schedule-cache entry dropped into the sim-cache directory under
        # the sim request's key must be rejected (kind mismatch -> miss).
        request = SimulationRequest(scenario=tiny_scenario)
        key = request.content_key()
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"kind": "repro/schedule-cache-entry", "version": 1, "data": {}})
        )
        with SimulationService(cache_dir=str(tmp_path)) as service:
            response = service.submit(request)
        assert response.cache == "miss"
        assert response.schedulable
