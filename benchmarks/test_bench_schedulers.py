"""Micro-benchmarks of the individual schedulers (ablation support).

These are not paper figures; they quantify the cost of each scheduling method
on a fixed medium-load system (the heuristic is polynomial, the GA dominates
the experiment run time).  The heuristic and GA benchmarks run several rounds
on cold per-process memos (``reset_memos`` before every round), so they time
the schedulers rather than memo hits; the GA runs once at the quick budget
and once at the paper's population of 300.
"""

import pytest

from repro.core.memo import reset_memos
from repro.scheduling import (
    FPSOfflineScheduler,
    GAConfig,
    GAScheduler,
    GPIOCPScheduler,
    HeuristicScheduler,
)
from repro.taskgen import SystemGenerator


@pytest.fixture(scope="module")
def medium_system():
    return SystemGenerator(rng=99).generate(0.5)


@pytest.mark.benchmark(group="schedulers")
def test_bench_fps_offline(benchmark, medium_system):
    result = benchmark(lambda: FPSOfflineScheduler().schedule_taskset(medium_system))
    assert result.per_device


@pytest.mark.benchmark(group="schedulers")
def test_bench_gpiocp(benchmark, medium_system):
    result = benchmark(lambda: GPIOCPScheduler().schedule_taskset(medium_system))
    assert result.per_device


def cold_memos():
    reset_memos()
    return (), {}


@pytest.mark.benchmark(group="schedulers")
def test_bench_heuristic(benchmark, medium_system):
    result = benchmark.pedantic(
        lambda: HeuristicScheduler().schedule_taskset(medium_system),
        setup=cold_memos,
        rounds=7,
        iterations=1,
    )
    assert result.schedulable
    for device_result in result.per_device.values():
        info = device_result.info
        assert info["allocated_direct"] + info["allocated_by_shift"] == info["n_sacrificed"]


@pytest.mark.benchmark(group="schedulers")
def test_bench_ga(benchmark, medium_system):
    scheduler = GAScheduler(GAConfig(population_size=20, generations=10, seed=5))
    result = benchmark.pedantic(
        lambda: scheduler.schedule_taskset(medium_system),
        setup=cold_memos,
        rounds=5,
        iterations=1,
    )
    assert result.schedulable


@pytest.mark.benchmark(group="schedulers")
def test_bench_ga_paper_population(benchmark, medium_system):
    """One GA cell at the paper's population size (300), 40 generations."""
    scheduler = GAScheduler(GAConfig(population_size=300, generations=40, seed=5))
    result = benchmark.pedantic(
        lambda: scheduler.schedule_taskset(medium_system),
        setup=cold_memos,
        rounds=5,
        iterations=1,
    )
    assert result.schedulable
    assert result.per_device["dev0"].info["evaluations"] == 300 * 41
