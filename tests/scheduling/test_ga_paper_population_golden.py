"""Golden digests of GA cells at the paper's population size (300).

The pinned-seed goldens in ``test_ga_golden.py`` run population 16 for 8
generations, so their non-dominated sorts never see more than 32 points and
their archives stay tiny.  These cells run population 300 for 20
generations on generator partitions of 112-212 jobs: every generation sorts
600 points (many of them infeasible ``-1`` rows on the unschedulable system)
and merges 300 offspring into the archive.  The SHA-256 of each response's
deterministic content, and one full Pareto front in archive order, were
recorded before the array-native generation loop replaced the per-front
sort, the per-position repair loop and the sequential archive inserts; they
must not change.
"""

import hashlib
import json

import pytest

from repro.scheduling import GAConfig, GAScheduler
from repro.service import ScheduleRequest, SchedulerSpec, execute_request
from repro.taskgen import GeneratorConfig, SystemGenerator

#: (generator rng, utilisation, GA seed) -> SHA-256 of ``result_dict()``.
RESPONSE_DIGESTS = {
    # 212 jobs, schedulable.
    (0, 0.7, 1): "e1ed994cb86f3d93d6f5670012e36082e7a80b382a33651d0a01761ca618615c",
    # 112 jobs, schedulable, a 7-point Pareto front.
    (5, 0.3, 2): "ae96b806e3373902c3c3f27df3218170355897e5c4e7eb68304cd8d6c4068b49",
    # 159 jobs, no feasible individual: every sort is full of -1 rows.
    (2, 0.7, 3): "27967f65e3d1f9a6ceadf3f5b1135e8af2a09a6e6a2aac94ae29ce22903e1673",
}

#: The archive of the (5, 0.3, 2) cell, in insertion order.
PARETO_FRONT = [
    (0.5982142857142857, 0.9233475248974808),
    (0.6339285714285714, 0.8853149189611405),
    (0.6428571428571429, 0.8750844903339189),
    (0.5714285714285714, 0.9442913249365359),
    (0.625, 0.9070244629955087),
    (0.6160714285714286, 0.9169240919742236),
    (0.5892857142857143, 0.9397548818590119),
]


def paper_population_spec(seed: int) -> str:
    return f"ga:population_size=300,generations=20,seed={seed}"


@pytest.mark.parametrize("system_rng,utilisation,seed", sorted(RESPONSE_DIGESTS))
def test_response_digest_is_pinned(system_rng, utilisation, seed):
    task_set = SystemGenerator(GeneratorConfig(), rng=system_rng).generate(utilisation)
    request = ScheduleRequest(
        task_set=task_set, spec=SchedulerSpec.parse(paper_population_spec(seed))
    )
    blob = json.dumps(execute_request(request).result_dict(), sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == RESPONSE_DIGESTS[(system_rng, utilisation, seed)]


def test_pareto_front_order_is_pinned():
    task_set = SystemGenerator(GeneratorConfig(), rng=5).generate(0.3)
    result = GAScheduler(
        GAConfig(population_size=300, generations=20, seed=2)
    ).schedule_taskset(task_set)
    info = result.per_device["dev0"].info
    assert info["evaluations"] == 300 * 21
    assert info["pareto_front"] == PARETO_FRONT
