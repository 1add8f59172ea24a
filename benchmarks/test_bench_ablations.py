"""Ablation benchmarks for the design choices called out in DESIGN.md.

Two knobs of the reproduction are exercised here:

* **LCC-D placement policy** — the paper places sacrificed jobs purely for
  schedulability (earliest fit); the `prefer_ideal_placement` variant snaps
  them as close to their ideal start as the chosen slot allows.  The ablation
  quantifies how much of the GA's Upsilon advantage that single change recovers.
* **GA seeding** — the GA is seeded with the heuristic solution (which is why
  its schedulability and Psi are never worse than the static method); the
  unseeded variant shows the cost of pure random initialisation at the same
  search budget.

Every round starts on cold per-process memos (``reset_memos`` in the
round's set-up), so each times the same work: every variant schedules every
system from scratch.
"""

import pytest

from repro.core.memo import reset_memos
from repro.experiments.stats import format_table, mean
from repro.scheduling import GAConfig, GAScheduler, HeuristicScheduler
from repro.taskgen import SystemGenerator


def _schedulable_systems(count: int, utilisation: float):
    systems = []
    seed = 0
    while len(systems) < count:
        task_set = SystemGenerator(rng=1000 + seed).generate(utilisation)
        seed += 1
        if HeuristicScheduler().schedule_taskset(task_set).schedulable:
            systems.append(task_set)
    return systems


def cold_memos():
    reset_memos()
    return (), {}


@pytest.mark.benchmark(group="ablation")
def test_ablation_lccd_placement_policy(benchmark):
    systems = _schedulable_systems(5, utilisation=0.5)

    def run():
        rows = []
        for variant, scheduler in (
            ("earliest-fit (paper)", HeuristicScheduler()),
            ("prefer-ideal", HeuristicScheduler(prefer_ideal_placement=True)),
        ):
            results = [scheduler.schedule_taskset(ts) for ts in systems]
            rows.append(
                {
                    "variant": variant,
                    "psi": mean([r.psi for r in results]),
                    "upsilon": mean([r.upsilon for r in results]),
                }
            )
        return rows

    rows = benchmark.pedantic(run, setup=cold_memos, rounds=5, iterations=1)
    print()
    print("Ablation — LCC-D placement policy (5 schedulable systems, U = 0.5)")
    print(format_table(rows))

    earliest, prefer = rows
    # Snapping sacrificed jobs towards their ideal start can only help quality
    # and never changes which jobs are exactly accurate by construction.
    assert prefer["upsilon"] >= earliest["upsilon"] - 1e-9
    assert prefer["psi"] >= earliest["psi"] - 1e-9


@pytest.mark.benchmark(group="ablation")
def test_ablation_ga_seeding(benchmark):
    systems = _schedulable_systems(3, utilisation=0.5)

    def run():
        rows = []
        for variant, config in (
            ("seeded (default)", GAConfig(population_size=24, generations=12, seed=4)),
            (
                "unseeded",
                GAConfig(
                    population_size=24, generations=12, seed=4, seed_with_heuristic=False
                ),
            ),
        ):
            results = [GAScheduler(config).schedule_taskset(ts) for ts in systems]
            rows.append(
                {
                    "variant": variant,
                    "schedulable": mean([float(r.schedulable) for r in results]),
                    "psi": mean([r.psi for r in results]),
                    "upsilon": mean([r.upsilon for r in results]),
                }
            )
        return rows

    rows = benchmark.pedantic(run, setup=cold_memos, rounds=5, iterations=1)
    print()
    print("Ablation — GA initial-population seeding (3 schedulable systems, U = 0.5)")
    print(format_table(rows))

    seeded, unseeded = rows
    # Seeding with the heuristic solution never hurts feasibility or exactness.
    assert seeded["schedulable"] >= unseeded["schedulable"] - 1e-9
    assert seeded["psi"] >= unseeded["psi"] - 0.05
