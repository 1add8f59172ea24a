"""MetricsRegistry semantics: instruments, snapshots, merge, worker parity."""

import json
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    REQUEST_LATENCY_MS,
    REQUESTS_TOTAL,
    MetricsRegistry,
    merge_snapshots,
    observe_phases,
)
from repro.service import ScheduleRequest, SchedulerSpec, SchedulingService
from repro.service.core import execute_chunk
from repro.service.batch_cli import scenario_requests


class TestCounters:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        assert registry.counter_value("c", kind="a") == 0
        registry.counter_inc("c", kind="a")
        registry.counter_inc("c", 2, kind="a")
        assert registry.counter_value("c", kind="a") == 3

    def test_integer_increments_stay_integers(self):
        registry = MetricsRegistry()
        registry.counter_inc("c", kind="a")
        assert isinstance(registry.counter_value("c", kind="a"), int)

    def test_labels_partition_samples(self):
        registry = MetricsRegistry()
        registry.counter_inc("c", kind="a")
        registry.counter_inc("c", kind="b")
        assert registry.counter_value("c", kind="a") == 1
        assert registry.counter_value("c", kind="b") == 1

    def test_negative_increment_is_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter_inc("c", -1, kind="a")

    def test_wrong_label_set_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter_inc("c", kind="a")
        with pytest.raises(ValueError, match="labels"):
            registry.counter_inc("c", other="a")

    def test_kind_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter_inc("c", kind="a")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge_set("c", 1.0, kind="a")


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge_set("g", 4.0)
        registry.gauge_set("g", 2.5)
        assert registry.gauge_value("g") == 2.5


class TestHistograms:
    def test_observation_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        registry.histogram_observe("h", 0.3, buckets=(0.25, 1.0), phase="x")
        registry.histogram_observe("h", 5.0, buckets=(0.25, 1.0), phase="x")
        snapshot = registry.snapshot()
        sample = snapshot["families"]["h"]["samples"][0]
        # (<=0.25, <=1.0, +Inf): 0.3 falls in the second, 5.0 overflows.
        assert sample["buckets"] == [0, 1, 1]
        assert sample["count"] == 2
        assert sample["sum"] == pytest.approx(5.3)

    def test_default_buckets_cover_the_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS_MS == tuple(sorted(DEFAULT_LATENCY_BUCKETS_MS))
        assert DEFAULT_LATENCY_BUCKETS_MS[0] <= 0.1
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] >= 10_000.0

    def test_bucket_mismatch_on_merge_is_rejected(self):
        a = MetricsRegistry()
        a.histogram_observe("h", 1.0, buckets=(1.0, 2.0))
        b = MetricsRegistry()
        b.histogram_observe("h", 1.0, buckets=(1.0,))
        with pytest.raises(ValueError):
            a.merge(b.snapshot())


class TestSnapshotAndMerge:
    def test_snapshot_is_json_serialisable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter_inc("z", kind="b")
        registry.counter_inc("z", kind="a")
        registry.gauge_set("a", 1.0)
        registry.histogram_observe("m", 0.4, phase="x")
        snapshot = registry.snapshot()
        json.dumps(snapshot)
        assert list(snapshot["families"]) == ["a", "m", "z"]
        labels = [s["labels"]["kind"] for s in snapshot["families"]["z"]["samples"]]
        assert labels == ["a", "b"]

    def test_merge_adds_counters_and_histograms_and_overwrites_gauges(self):
        a = MetricsRegistry()
        a.counter_inc("c", 2, kind="x")
        a.gauge_set("g", 1.0)
        a.histogram_observe("h", 0.2, buckets=(1.0,))
        b = MetricsRegistry()
        b.counter_inc("c", 3, kind="x")
        b.gauge_set("g", 9.0)
        b.histogram_observe("h", 0.7, buckets=(1.0,))

        a.merge(b.snapshot())
        assert a.counter_value("c", kind="x") == 5
        assert a.gauge_value("g") == 9.0
        assert a.histogram_count("h") == 2

    def test_merge_snapshots_equals_pairwise_merges(self):
        registries = []
        for amount in (1, 2, 3):
            registry = MetricsRegistry()
            registry.counter_inc("c", amount, kind="x")
            registries.append(registry)
        merged = merge_snapshots(r.snapshot() for r in registries)
        sample = merged["families"]["c"]["samples"][0]
        assert sample["value"] == 6

    def test_thread_safety_under_concurrent_increments(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(500):
                registry.counter_inc("c", kind="x")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("c", kind="x") == 2000


class TestObservePhases:
    def test_each_phase_becomes_one_observation(self):
        registry = MetricsRegistry()
        phases = [
            {"phase": "schedule", "duration_ms": 4.0},
            {"phase": "store", "duration_ms": 0.2},
        ]
        observe_phases(registry, "schedule", phases)
        assert registry.histogram_count(
            REQUEST_LATENCY_MS, kind="schedule", phase="schedule"
        ) == 1
        assert registry.histogram_count(
            REQUEST_LATENCY_MS, kind="schedule", phase="store"
        ) == 1


def _chunk_of_one(request, trace_id):
    """The pool-worker entry's payload for one scheduling job."""
    scenarios = {}
    entry = (SchedulingService.slim(request, scenarios), request.content_key(), trace_id, None)
    return (SchedulingService, None, scenarios, [entry], None)


def _observed_jobs(n_systems):
    requests = scenario_requests("short-hyperperiod", ["static"], n_systems)
    return [_chunk_of_one(request, f"trace{i:02d}") for i, request in enumerate(requests)]


class TestWorkerSnapshotParity:
    """Acceptance: merged per-worker registries == the serial registry."""

    def test_pool_merge_equals_serial_counts(self):
        jobs = _observed_jobs(4)

        serial = MetricsRegistry()
        for _, snapshot in map(execute_chunk, jobs):
            serial.merge(snapshot)

        pooled = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as executor:
            for _, snapshot in executor.map(execute_chunk, jobs):
                pooled.merge(snapshot)

        serial_families = serial.snapshot()["families"]
        pooled_families = pooled.snapshot()["families"]
        assert set(serial_families) == set(pooled_families)
        histogram = pooled_families[REQUEST_LATENCY_MS]
        for serial_sample, pooled_sample in zip(
            serial_families[REQUEST_LATENCY_MS]["samples"], histogram["samples"]
        ):
            assert serial_sample["labels"] == pooled_sample["labels"]
            assert serial_sample["count"] == pooled_sample["count"]

    def test_observed_worker_response_matches_direct_execution(self):
        from repro.service import execute_request

        request = ScheduleRequest(
            scenario=scenario_requests("short-hyperperiod", ["static"], 1)[0].scenario,
            system_index=0,
            spec=SchedulerSpec.parse("static"),
        )
        [(response, trace)], snapshot = execute_chunk(_chunk_of_one(request, "t0"))
        assert response.result_dict() == execute_request(request).result_dict()
        assert trace["trace_id"] == "t0"
        assert snapshot["families"]
