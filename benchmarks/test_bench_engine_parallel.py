"""Benchmarks of the parallel experiment engine and its artifact cache.

Two properties are demonstrated on ``ExperimentConfig.quick()``:

* **pooled dispatch** — the schedulability sweep on 4 workers returns
  bit-identical series to the serial run and computes every cell in the
  pool: each computed cell records one ``queue-wait`` phase, and the serial
  sweep records none (counted, not timed; the speedup is printed);
* **near-free cache hits** — re-running a sweep against a populated artifact
  directory recomputes nothing: the sweep JSON answers it whole, and without
  that JSON the cell cache answers every cell (counted, not timed; the
  timings go to ``BENCH_results.json``).
"""

import os
import time

import pytest

from repro.experiments import ExperimentConfig, ExperimentEngine

PARALLEL_WORKERS = 4


def queue_waits(engine: ExperimentEngine) -> int:
    """Schedule requests whose trace recorded a pool queue-wait phase."""
    return engine.service.registry.histogram_count(
        "repro_request_latency_ms", kind="schedule", phase="queue-wait"
    )


@pytest.mark.benchmark(group="engine")
def test_engine_parallel_speedup(benchmark, quick_config, tmp_path_factory):
    config = quick_config.with_overrides(n_workers=1, artifact_dir=None)

    start = time.perf_counter()
    with ExperimentEngine(config, n_workers=1) as engine:
        serial = engine.schedulability_sweep()
        serial_waits = queue_waits(engine)
    serial_seconds = time.perf_counter() - start

    def parallel_run():
        with ExperimentEngine(config, n_workers=PARALLEL_WORKERS) as engine:
            return engine.schedulability_sweep(), engine.cells_computed, queue_waits(engine)

    start = time.perf_counter()
    parallel, computed, pooled_waits = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_seconds = time.perf_counter() - start

    # Bit-identical results at any worker count, on any machine.
    assert parallel.series == serial.series
    assert parallel.utilisations == serial.utilisations
    # Every computed cell of the pooled sweep waited in the pool's queue
    # once; the serial sweep never queued.
    assert computed > 0
    assert pooled_waits == computed
    assert serial_waits == 0

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print()
    print(
        f"engine speedup: serial {serial_seconds:.2f}s, "
        f"{PARALLEL_WORKERS} workers {parallel_seconds:.2f}s "
        f"-> {speedup:.2f}x on {os.cpu_count()} CPUs"
    )


@pytest.mark.benchmark(group="engine")
def test_engine_artifact_cache_makes_reruns_near_free(benchmark, quick_config, tmp_path_factory):
    artifact_dir = tmp_path_factory.mktemp("engine-cache")
    config = quick_config.with_overrides(n_workers=1, artifact_dir=str(artifact_dir))

    start = time.perf_counter()
    with ExperimentEngine(config) as engine:
        cold = engine.schedulability_sweep()
        cold_cells = engine.cells_computed
    cold_seconds = time.perf_counter() - start

    def warm_run():
        with ExperimentEngine(config) as engine:
            result = engine.schedulability_sweep()
            assert engine.cells_computed == 0, "cache hit must not recompute cells"
            return result

    start = time.perf_counter()
    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_seconds = time.perf_counter() - start

    # Without the sweep JSON, the cell cache answers every cell.
    for sweep_json in artifact_dir.glob("*/schedulability-*.json"):
        sweep_json.unlink()
    with ExperimentEngine(config) as engine:
        resumed = engine.schedulability_sweep()
        stats = engine.service.stats()

    assert cold_cells > 0
    assert (stats["computed"], stats["cache_hits"], stats["cache_stores"]) == (0, cold_cells, 0)
    assert warm.series == cold.series
    assert resumed.series == cold.series
    print()
    print(
        f"artifact cache: cold {cold_seconds:.2f}s ({cold_cells} cells), "
        f"warm {warm_seconds:.3f}s"
    )
