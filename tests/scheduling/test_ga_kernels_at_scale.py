"""Property tests of the GA generation-loop kernels at the sizes the GA runs.

``test_ga_vectorized_properties.py`` checks the kernels on at most 24
objective vectors and partitions of at most five tasks over 80 ms.  The GA
sorts 2 x population points per generation (600 at the paper's population
of 300) and repairs partitions of 100-280 jobs, so these tests check the
same exact-equality contracts at those sizes:

* the two-objective front sort against the scalar reference in
  ``ga_oracles.py``, on up to 600 points with ties, duplicates and
  infeasible ``-1`` rows;
* all-fronts rank and crowding against the scalar crowding reference,
  bitwise;
* ``ParetoArchive.merge`` against inserting the same rows one at a time
  (the sequential oracle below), comparing entries, order and payload
  identity;
* ``evaluate_batch`` against the scalar ``evaluate`` on generator
  partitions of 100-280 jobs.
"""

from typing import List

import numpy as np
import pytest
from ga_oracles import (
    dominates,
    evaluate,
    reference_crowding_distance,
    reference_fast_non_dominated_sort,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scheduling import HeuristicScheduler
from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.nsga2 import (
    ArchiveEntry,
    ParetoArchive,
    fast_non_dominated_sort,
    rank_and_crowding,
)
from repro.scheduling.ga.reconfiguration import evaluate_batch
from repro.taskgen import GeneratorConfig, SystemGenerator

SCALE_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def objective_matrix(size: int, seed: int, n_levels: int, infeasible: float) -> np.ndarray:
    """``size`` (Psi, Upsilon) points shaped like a GA population's.

    Psi takes ``n_levels`` values ``k / n_levels`` (a partition's job count),
    Upsilon is either as coarse (many exact ties and duplicates) or
    continuous, and a fraction of the rows is the infeasible ``(-1, -1)``.
    """
    rng = np.random.default_rng(seed)
    psi = rng.integers(0, n_levels + 1, size) / n_levels
    if seed % 2:
        upsilon = rng.integers(0, n_levels + 1, size) / n_levels
    else:
        upsilon = rng.random(size)
    points = np.column_stack([psi, upsilon])
    points[rng.random(size) < infeasible] = -1.0
    return points


objective_matrices = st.builds(
    objective_matrix,
    size=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    n_levels=st.sampled_from([2, 5, 24, 119]),
    infeasible=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
)


class TestTwoObjectiveSortAtScale:
    @given(points=objective_matrices)
    @SCALE_SETTINGS
    def test_fronts_rank_and_crowding_equal_reference(self, points):
        objectives = [tuple(row) for row in points.tolist()]
        reference = reference_fast_non_dominated_sort(objectives)
        # The same fronts with the same order inside each front.
        assert fast_non_dominated_sort(points) == reference
        rank, crowding = rank_and_crowding(points)
        for front_index, front in enumerate(reference):
            distances = reference_crowding_distance(objectives, front)
            for index in front:
                assert rank[index] == front_index
                # == on floats: inf == inf holds and any ULP drift fails.
                assert crowding[index] == distances[index]

    def test_six_hundred_points_in_many_fronts(self):
        # A GA-like combined population: coarse Psi, continuous Upsilon and a
        # block of infeasible rows, sorted into dozens of fronts.
        points = objective_matrix(600, seed=4, n_levels=119, infeasible=0.2)
        objectives = [tuple(row) for row in points.tolist()]
        fronts = fast_non_dominated_sort(points)
        assert len(fronts) > 10
        assert fronts == reference_fast_non_dominated_sort(objectives)


class SequentialArchive:
    """The archive's one-candidate-at-a-time insertion rule (merge oracle).

    A candidate is rejected when some entry dominates or equals it;
    otherwise it displaces the entries it dominates and is appended.
    """

    def __init__(self) -> None:
        self.entries: List[ArchiveEntry] = []

    def add(self, genes, objectives, payload) -> bool:
        if any(
            all(e >= c for e, c in zip(entry.objectives, objectives))
            for entry in self.entries
        ):
            return False
        self.entries = [
            entry for entry in self.entries if not dominates(objectives, entry.objectives)
        ]
        self.entries.append(
            ArchiveEntry(genes=genes.copy(), objectives=objectives, payload=payload)
        )
        return True


class TestArchiveMerge:
    @given(
        batches=st.lists(
            st.tuples(st.integers(1, 300), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=6,
        ),
        n_levels=st.sampled_from([3, 12, 119]),
    )
    @SCALE_SETTINGS
    def test_merge_equals_sequential_adds(self, batches, n_levels):
        archive = ParetoArchive()
        oracle = SequentialArchive()
        for size, seed in batches:
            points = objective_matrix(size, seed, n_levels, infeasible=0.0)
            genes = np.arange(size * 3, dtype=np.int64).reshape(size, 3) + seed
            payloads = [object() for _ in range(size)]
            entered = archive.merge(genes, points, payloads)
            expected = [
                oracle.add(genes[row], tuple(points[row].tolist()), payloads[row])
                for row in range(size)
            ]
            # A row can enter and be displaced by a later row of its batch.
            survivors = {id(entry.payload) for entry in oracle.entries}
            assert entered.tolist() == [
                accepted and id(payload) in survivors
                for accepted, payload in zip(expected, payloads)
            ]
            assert len(archive) == len(oracle.entries)
            for got, want in zip(archive, oracle.entries):
                assert got.objectives == want.objectives
                assert got.payload is want.payload
                assert np.array_equal(got.genes, want.genes)

    def test_add_is_a_one_row_merge(self):
        archive = ParetoArchive()
        assert archive.add(np.array([1]), (0.5, 0.5), payload="a")
        assert not archive.add(np.array([1]), (0.5, 0.5), payload="again")
        assert archive.add(np.array([2]), (0.6, 0.5), payload="b")
        assert [entry.payload for entry in archive] == ["b"]


def generator_partition(system_rng: int, utilisation: float) -> GAProblem:
    task_set = SystemGenerator(GeneratorConfig(), rng=system_rng).generate(utilisation)
    horizon = task_set.hyperperiod()
    (partition,) = task_set.partition().values()
    return GAProblem(jobs=partition.jobs(horizon), horizon=horizon)


def perturbed_heuristic_population(problem: GAProblem, size: int, rng) -> np.ndarray:
    """Rows of the heuristic's solution with a few genes mutated.

    This is the shape of a seeded GA population: most jobs keep a feasible
    placement, so many rows survive the repair and the snap-to-ideal pass
    decides the start of every job it can move.
    """
    result = HeuristicScheduler().schedule_jobs(problem.jobs, problem.horizon)
    assert result.schedulable
    base = np.array([result.schedule.start_of(job) for job in problem.jobs], dtype=np.int64)
    mutating = rng.random((size, problem.n_genes)) < rng.uniform(0.005, 0.05, (size, 1))
    snapping = rng.random((size, problem.n_genes)) < 0.5
    replacement = np.where(
        snapping, problem.compiled().ideal_clamped, problem.random_population(size, rng)
    )
    return np.where(mutating, replacement, base)


@pytest.mark.parametrize(
    "system_rng,utilisation",
    # 212, 112, 139, 117 and 156 jobs.
    [(0, 0.7), (5, 0.3), (3, 0.5), (1, 0.5), (7, 0.7)],
)
def test_evaluate_batch_matches_scalar_on_generator_partitions(system_rng, utilisation):
    problem = generator_partition(system_rng, utilisation)
    assert 100 <= problem.n_genes <= 280
    rng = np.random.default_rng(system_rng * 10 + int(utilisation * 10))
    population = np.vstack(
        [
            problem.random_population(4, rng),
            perturbed_heuristic_population(problem, 16, rng),
        ]
    )
    objectives, starts, feasible = evaluate_batch(problem, population)
    assert feasible.any()
    for row in range(population.shape[0]):
        psi_value, upsilon_value, schedule = evaluate(problem.jobs, population[row])
        assert objectives[row, 0] == psi_value
        assert objectives[row, 1] == upsilon_value
        assert feasible[row] == (schedule is not None)
        if schedule is not None:
            assert [schedule.start_of(job) for job in problem.jobs] == starts[row].tolist()
