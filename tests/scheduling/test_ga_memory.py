"""The GA's memory does not grow with the number of generations.

Every generation creates fresh population, objective and start-time
matrices.  A search must drop them once the next generation replaces them:
nothing may keep per-row state for the whole run, and an archived payload
must not be a view that keeps its batch's whole start matrix alive.
"""

import tracemalloc

from repro.scheduling import GAConfig, GAScheduler
from repro.taskgen import GeneratorConfig, SystemGenerator


def peak_traced_bytes(task_set, generations: int) -> int:
    scheduler = GAScheduler(GAConfig(population_size=100, generations=generations, seed=1))
    tracemalloc.start()
    try:
        result = scheduler.schedule_taskset(task_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.schedulable
    return peak


def test_peak_memory_does_not_grow_with_generations():
    # 112 jobs; the archive holds a handful of entries throughout.
    task_set = SystemGenerator(GeneratorConfig(), rng=5).generate(0.3)
    # Warm the per-process memos so both runs start from the same state.
    GAScheduler(GAConfig(population_size=100, generations=1, seed=1)).schedule_taskset(task_set)
    short = peak_traced_bytes(task_set, generations=40)
    long = peak_traced_bytes(task_set, generations=160)
    assert long <= 1.5 * short, f"peak {long} B at 160 generations vs {short} B at 40"
