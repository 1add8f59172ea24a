"""Benchmarks of the scenario API: materialisation throughput and overhead.

Materialisation sits on every hot path of a scenario-backed run — each sweep
cell regenerates its system from the declarative description — so it must
stay cheap: a content-hash seed derivation plus one synthetic-system draw and
two small object graphs (controller, mesh).  The benchmark reports systems
materialised per second over the registered presets, and a second case counts
the work the scenario layer adds on top of the bare generator it wraps.
"""

import pytest

import repro.core.serialization as serialization
from repro.core.memo import reset_memos
from repro.scenario import available_scenarios, create_scenario, materialize
from repro.taskgen import SystemGenerator

#: Materialisations per benchmark round (spread over the presets).
N_SYSTEMS = 25


@pytest.mark.benchmark(group="scenario")
def test_scenario_materialization_throughput(benchmark):
    scenarios = [create_scenario(name) for name in available_scenarios()]

    def materialize_all():
        produced = []
        for scenario in scenarios:
            for index in range(N_SYSTEMS):
                produced.append(materialize(scenario, index).task_set)
        return produced

    task_sets = benchmark(materialize_all)
    assert len(task_sets) == len(scenarios) * N_SYSTEMS
    assert all(len(task_set) > 0 for task_set in task_sets)


@pytest.mark.benchmark(group="scenario")
def test_materialization_overhead_vs_bare_generator(benchmark, monkeypatch):
    """The declarative layer adds hashing + platform building to the bare
    generator draw it wraps, nothing more.

    Counted on cold memos rather than timed against the bare generator: one
    scenario hash, one seed hash per system (``canonical_json`` calls) and
    one generator draw per system.  The benchmark still times the
    declarative generation.
    """

    def declarative_generation():
        # A fresh scenario value (no memoised content key) on cold memos.
        reset_memos()
        scenario = create_scenario("paper-default")
        return [materialize(scenario, index).task_set for index in range(N_SYSTEMS)]

    declarative = benchmark.pedantic(declarative_generation, rounds=3, iterations=1)
    assert len(declarative) == N_SYSTEMS

    hashed, draws = [], []
    canonical_json = serialization.canonical_json
    generate = SystemGenerator.generate

    def counting_canonical_json(obj):
        hashed.append(obj)
        return canonical_json(obj)

    def counting_generate(self, *args, **kwargs):
        draws.append(args)
        return generate(self, *args, **kwargs)

    monkeypatch.setattr(serialization, "canonical_json", counting_canonical_json)
    monkeypatch.setattr(SystemGenerator, "generate", counting_generate)
    counted = declarative_generation()
    monkeypatch.undo()

    assert [serialization.taskset_to_dict(task_set) for task_set in counted] == [
        serialization.taskset_to_dict(task_set) for task_set in declarative
    ]
    seeds = [obj for obj in hashed if obj.get("purpose") == "scenario-system-seed"]
    assert [seed["index"] for seed in seeds] == list(range(N_SYSTEMS))
    assert len(hashed) == 1 + N_SYSTEMS  # the scenario itself, once
    assert len(draws) == N_SYSTEMS
