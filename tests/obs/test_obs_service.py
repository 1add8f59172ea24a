"""Service-level observability: phase breakdowns, counters, byte-identity.

The hard constraint under test: observability data never enters response
envelopes or cached payloads — instrumented answers are byte-identical to
the pure execution path, warm or cold, at any worker count.
"""

import pytest

from repro.obs import (
    CACHE_OPS_TOTAL,
    PHASE_CACHE_LOOKUP,
    PHASE_QUEUE_WAIT,
    PHASE_SCHEDULE,
    PHASE_SIMULATE,
    PHASE_STORE,
    REQUEST_LATENCY_MS,
    REQUESTS_TOTAL,
)
from repro.runtime import SimulationService, execute_simulation
from repro.runtime.__main__ import scenario_requests as sim_scenario_requests
from repro.service import SchedulingService, execute_request
from repro.service.batch_cli import scenario_requests

SCENARIO = "short-hyperperiod"


def phase_names(trace):
    return [phase["phase"] for phase in trace["phases"]]


class TestSchedulingTraces:
    def test_cold_request_breaks_down_into_lookup_schedule_store(self):
        with SchedulingService() as service:
            service.submit(scenario_requests(SCENARIO, ["static"], 1)[0])
            (trace,) = service.last_traces
        assert phase_names(trace) == [PHASE_CACHE_LOOKUP, PHASE_SCHEDULE, PHASE_STORE]
        assert all(phase["duration_ms"] >= 0.0 for phase in trace["phases"])
        assert trace["trace_id"]

    def test_warm_request_is_lookup_only(self):
        request = scenario_requests(SCENARIO, ["static"], 1)[0]
        with SchedulingService() as service:
            service.submit(request)
            service.submit(request)
            (trace,) = service.last_traces
        assert phase_names(trace) == [PHASE_CACHE_LOOKUP]

    def test_counters_split_by_cache_status(self):
        requests = scenario_requests(SCENARIO, ["static"], 2)
        with SchedulingService() as service:
            service.submit_batch(requests)
            service.submit_batch(requests)
            registry = service.registry
            assert registry.counter_value(
                REQUESTS_TOTAL, kind="schedule", cache="miss"
            ) == 2
            assert registry.counter_value(
                REQUESTS_TOTAL, kind="schedule", cache="hit"
            ) == 2
            assert registry.counter_value(
                CACHE_OPS_TOTAL, cache="schedule", op="store"
            ) == 2

    def test_stats_and_registry_agree(self):
        requests = scenario_requests(SCENARIO, ["static"], 2)
        with SchedulingService() as service:
            service.submit_batch(requests)
            service.submit_batch(requests)
            stats = service.stats()
            registry = service.registry
        assert stats["cache_hits"] == registry.counter_value(
            CACHE_OPS_TOTAL, cache="schedule", op="hit"
        )
        assert stats["cache_misses"] == registry.counter_value(
            CACHE_OPS_TOTAL, cache="schedule", op="miss"
        )
        assert stats["cache_stores"] == registry.counter_value(
            CACHE_OPS_TOTAL, cache="schedule", op="store"
        )


class TestByteIdentity:
    def test_instrumented_response_equals_pure_execution(self):
        request = scenario_requests(SCENARIO, ["static"], 1)[0]
        with SchedulingService() as service:
            response = service.submit(request)
        assert response.result_dict() == execute_request(request).result_dict()

    def test_envelope_carries_no_observability_keys(self):
        request = scenario_requests(SCENARIO, ["static"], 1)[0]
        with SchedulingService() as service:
            cold = service.submit(request).to_dict()
            warm = service.submit(request).to_dict()
        for envelope in (cold, warm):
            payload = envelope["data"]
            assert set(payload) == {"id", "result", "cache", "timing"}
            assert set(payload["timing"]) == {"elapsed_s"}
            assert "trace" not in str(envelope)

    def test_warm_answers_identical_at_any_worker_count(self, tmp_path):
        requests = scenario_requests(SCENARIO, ["static"], 2)
        outputs = []
        for n_workers in (1, 2):
            cache_dir = tmp_path / f"w{n_workers}"
            with SchedulingService(
                n_workers=n_workers, cache_dir=str(cache_dir)
            ) as service:
                service.submit_batch(requests)
                outputs.append(
                    [response.to_json() for response in service.submit_batch(requests)]
                )
        assert outputs[0] == outputs[1]


class TestPooledParity:
    """Merged worker registries equal the serial registry, counter for counter."""

    def test_pooled_counts_equal_serial_counts(self):
        requests = scenario_requests(SCENARIO, ["static", "gpiocp"], 2)
        registries = {}
        for n_workers in (1, 2):
            with SchedulingService(n_workers=n_workers) as service:
                service.submit_batch(requests)
                registries[n_workers] = service.registry
        serial, pooled = registries[1], registries[2]
        for cache in ("miss", "hit"):
            assert serial.counter_value(
                REQUESTS_TOTAL, kind="schedule", cache=cache
            ) == pooled.counter_value(REQUESTS_TOTAL, kind="schedule", cache=cache)
        for phase in (PHASE_CACHE_LOOKUP, PHASE_SCHEDULE, PHASE_STORE):
            assert serial.histogram_count(
                REQUEST_LATENCY_MS, kind="schedule", phase=phase
            ) == pooled.histogram_count(
                REQUEST_LATENCY_MS, kind="schedule", phase=phase
            )

    def test_pooled_traces_record_queue_wait(self):
        requests = scenario_requests(SCENARIO, ["static", "gpiocp"], 2)
        with SchedulingService(n_workers=2) as service:
            service.submit_batch(requests)
            miss_traces = [
                trace
                for trace in service.last_traces
                if PHASE_SCHEDULE in phase_names(trace)
            ]
        assert miss_traces
        for trace in miss_traces:
            assert PHASE_QUEUE_WAIT in phase_names(trace)


class TestSimulationTraces:
    def test_cold_simulation_includes_simulate_phase(self):
        request = sim_scenario_requests(SCENARIO, ["static"], ["dedicated-controller"], 1)[0]
        with SimulationService() as service:
            response = service.submit(request)
            (trace,) = service.last_traces
        names = phase_names(trace)
        assert names[0] == PHASE_CACHE_LOOKUP
        assert PHASE_SIMULATE in names
        assert names[-1] == PHASE_STORE
        assert names.count(PHASE_SCHEDULE) == 1
        assert response.cache == "miss"

    def test_warm_simulation_is_lookup_only(self):
        request = sim_scenario_requests(SCENARIO, ["static"], ["dedicated-controller"], 1)[0]
        with SimulationService() as service:
            service.submit(request)
            service.submit(request)
            (trace,) = service.last_traces
        assert phase_names(trace) == [PHASE_CACHE_LOOKUP]

    def test_instrumented_simulation_equals_pure_execution(self):
        request = sim_scenario_requests(SCENARIO, ["static"], ["dedicated-controller"], 1)[0]
        with SimulationService() as service:
            response = service.submit(request)
        assert response.result_dict() == execute_simulation(request).result_dict()

    def test_metrics_snapshot_covers_both_service_layers(self):
        request = sim_scenario_requests(SCENARIO, ["static"], ["dedicated-controller"], 1)[0]
        with SimulationService() as service:
            service.submit(request)
            snapshot = service.metrics()
        families = snapshot["families"]
        assert REQUESTS_TOTAL in families
        cache_labels = {
            sample["labels"]["cache"]
            for sample in families[CACHE_OPS_TOTAL]["samples"]
        }
        assert cache_labels == {"schedule", "simulation"}


class TestCacheMetricsSharing:
    def test_external_cache_keeps_its_own_registry(self):
        from repro.service.cache import ScheduleCache

        cache = ScheduleCache()
        with SchedulingService(cache=cache) as service:
            service.submit(scenario_requests(SCENARIO, ["static"], 1)[0])
            assert cache.registry is not service.registry
            assert len(service.metrics_registries()) == 2
            merged = service.metrics()
        assert CACHE_OPS_TOTAL in merged["families"]

    def test_counter_properties_stay_integers(self):
        from repro.service.cache import ScheduleCache

        cache = ScheduleCache()
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.get("missing") is None
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert all(
            isinstance(value, int)
            for value in (cache.hits, cache.misses, cache.stores)
        )


@pytest.mark.parametrize("n_workers", [1, 2])
def test_simulation_pooled_counts_equal_serial(n_workers, tmp_path):
    requests = sim_scenario_requests(
        SCENARIO, ["static"], ["dedicated-controller", "cpu-instigated"], 1
    )
    with SimulationService(n_workers=n_workers) as service:
        service.submit_batch(requests)
        registry = service.registry
        assert registry.counter_value(
            REQUESTS_TOTAL, kind="simulation", cache="miss"
        ) == len(requests)
        assert registry.histogram_count(
            REQUEST_LATENCY_MS, kind="simulation", phase=PHASE_SIMULATE
        ) == len(requests)
