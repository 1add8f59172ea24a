"""Unit tests for the GA building blocks: encoding, constraints, repair, NSGA-II."""

import numpy as np
import pytest
from ga_oracles import dominates

from repro.core import MS, IOTask
from repro.scheduling.ga import GAProblem, evaluate_batch
from repro.scheduling.ga.constraints import constraint1_matrix, count_conflicts_batch
from repro.scheduling.ga.nsga2 import ParetoArchive, crowding_distance, fast_non_dominated_sort
from repro.scheduling.ga.operators import (
    batch_mutate,
    batch_uniform_crossover,
    initial_population_matrix,
)


def make_task(name, wcet=2 * MS, period=40 * MS, delta=10 * MS, priority=1):
    return IOTask(
        name=name, wcet=wcet, period=period, priority=priority,
        ideal_offset=delta, theta=period // 4,
    )


def evaluate_one(jobs, genes):
    """``evaluate_batch`` on a one-row matrix: ``(psi, upsilon, starts)``.

    ``genes`` follow the order of ``jobs``; ``starts`` maps each job to its
    repaired start time, or is ``None`` when the row is infeasible.
    """
    problem = GAProblem(jobs=list(jobs), horizon=max(job.deadline for job in jobs))
    gene_of = dict(zip(jobs, genes))
    row = np.array([[gene_of[job] for job in problem.jobs]])
    objectives, starts, feasible = evaluate_batch(problem, row)
    psi_value, upsilon_value = objectives[0].tolist()
    if not feasible[0]:
        return psi_value, upsilon_value, None
    return psi_value, upsilon_value, dict(zip(problem.jobs, starts[0].tolist()))


class TestConstraints:
    def test_constraint1(self):
        problem = GAProblem(jobs=[make_task("a").job(0)], horizon=40 * MS)
        job = problem.jobs[0]
        latest = job.deadline - job.wcet
        starts = np.array([[job.release], [latest], [latest + 1], [job.release - 1]])
        satisfied = constraint1_matrix(problem.compiled(), starts)
        assert satisfied[:, 0].tolist() == [True, True, False, False]

    def test_constraint2(self):
        a = make_task("a").job(0)
        b = make_task("b").job(0)
        compiled = GAProblem(jobs=[a, b], horizon=40 * MS).compiled()
        starts = np.array([[0, 2 * MS], [2 * MS, 0], [0, MS]])  # columns: a, b
        assert count_conflicts_batch(compiled, starts).tolist() == [0, 0, 1]


class TestGAProblem:
    def test_gene_bounds_are_timing_boundary(self):
        problem = GAProblem(jobs=[make_task("a").job(0)], horizon=40 * MS)
        lo, hi = problem.gene_bounds(0)
        job = problem.jobs[0]
        assert lo == job.ideal_start - job.task.theta
        assert hi == job.ideal_start + job.task.theta

    def test_full_bounds_are_constraint1(self):
        problem = GAProblem(jobs=[make_task("a").job(0)], horizon=40 * MS)
        lo, hi = problem.full_bounds(0)
        job = problem.jobs[0]
        assert (lo, hi) == (job.release, job.deadline - job.wcet)

    def test_random_genes_within_bounds(self):
        jobs = [make_task(f"t{i}", delta=(10 + i) * MS).job(0) for i in range(5)]
        problem = GAProblem(jobs=jobs, horizon=40 * MS)
        rng = np.random.default_rng(0)
        genes = problem.random_genes(rng)
        for index in range(problem.n_genes):
            lo, hi = problem.gene_bounds(index)
            assert lo <= genes[index] <= hi

    def test_rejects_multi_device_partition(self):
        a = make_task("a")
        b = IOTask(name="b", wcet=MS, period=40 * MS, ideal_offset=0, theta=0, device="other")
        with pytest.raises(ValueError):
            GAProblem(jobs=[a.job(0), b.job(0)], horizon=40 * MS)

    def test_clamp(self):
        problem = GAProblem(jobs=[make_task("a").job(0)], horizon=40 * MS)
        clamped = problem.clamp(np.array([10_000_000]))
        lo, hi = problem.full_bounds(0)
        assert lo <= clamped[0] <= hi


class TestReconfiguration:
    def test_conflict_free_genes_untouched(self):
        jobs = [make_task("a", delta=10 * MS).job(0), make_task("b", delta=20 * MS).job(0)]
        _, _, starts = evaluate_one(jobs, [jobs[0].ideal_start, jobs[1].ideal_start])
        assert starts[jobs[0]] == jobs[0].ideal_start
        assert starts[jobs[1]] == jobs[1].ideal_start

    def test_conflicting_genes_are_serialised(self):
        jobs = [make_task("a", wcet=4 * MS).job(0), make_task("b", wcet=4 * MS, delta=11 * MS).job(0)]
        _, _, starts = evaluate_one(jobs, [10 * MS, 11 * MS])
        assert starts[jobs[0]] == 10 * MS
        assert starts[jobs[1]] == 14 * MS

    def test_same_start_executes_higher_priority_first(self):
        hi = make_task("hi", priority=5).job(0)
        lo = make_task("lo", priority=1).job(0)
        _, _, starts = evaluate_one([lo, hi], [10 * MS, 10 * MS])
        assert starts[hi] == 10 * MS
        assert starts[lo] == 10 * MS + hi.wcet

    def test_snap_to_ideal_when_possible(self):
        job = make_task("a", delta=10 * MS).job(0)
        _, _, starts = evaluate_one([job], [12 * MS])
        assert starts[job] == job.ideal_start

    def test_infeasible_returns_none(self):
        # Two jobs that cannot both fit before their (equal) deadlines.
        a = IOTask(name="a", wcet=12 * MS, period=20 * MS, ideal_offset=5 * MS, theta=5 * MS)
        b = IOTask(name="b", wcet=12 * MS, period=20 * MS, ideal_offset=6 * MS, theta=5 * MS)
        assert evaluate_one([a.job(0), b.job(0)], [5 * MS, 6 * MS])[2] is None

    def test_evaluate_returns_minus_one_for_infeasible(self):
        a = IOTask(name="a", wcet=12 * MS, period=20 * MS, ideal_offset=5 * MS, theta=5 * MS)
        b = IOTask(name="b", wcet=12 * MS, period=20 * MS, ideal_offset=6 * MS, theta=5 * MS)
        psi_value, upsilon_value, starts = evaluate_one([a.job(0), b.job(0)], [5 * MS, 6 * MS])
        assert (psi_value, upsilon_value) == (-1.0, -1.0)
        assert starts is None


class TestNSGA2Machinery:
    def test_dominates(self):
        assert dominates((1.0, 1.0), (0.5, 1.0))
        assert not dominates((0.5, 1.0), (1.0, 0.5))
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_fast_non_dominated_sort(self):
        objectives = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.2, 0.2)]
        fronts = fast_non_dominated_sort(objectives)
        assert set(fronts[0]) == {0, 1, 2}
        assert set(fronts[1]) == {3}

    def test_crowding_distance_extremes_infinite(self):
        objectives = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        distances = crowding_distance(objectives, [0, 1, 2])
        assert distances[0] == float("inf")
        assert distances[2] == float("inf")
        assert 0 < distances[1] < float("inf")

    def test_pareto_archive_keeps_only_non_dominated(self):
        archive = ParetoArchive()
        assert archive.add(np.array([1]), (0.5, 0.5), payload="a")
        assert archive.add(np.array([2]), (0.8, 0.2), payload="b")
        assert not archive.add(np.array([3]), (0.4, 0.4), payload="dominated")
        assert archive.add(np.array([4]), (0.9, 0.9), payload="dominator")
        assert len(archive) == 1
        assert archive.best_by(0).payload == "dominator"


class TestOperators:
    def make_problem(self):
        jobs = [make_task(f"t{i}", delta=(8 + 3 * i) * MS).job(0) for i in range(4)]
        return GAProblem(jobs=jobs, horizon=40 * MS)

    def test_initial_population_size_and_seeds(self):
        problem = self.make_problem()
        rng = np.random.default_rng(1)
        seeds = [problem.ideal_genes()]
        population = initial_population_matrix(problem, 10, rng, seeds=seeds)
        assert population.shape == (10, problem.n_genes)
        assert np.array_equal(population[0], problem.clamp(problem.ideal_genes()))

    def test_uniform_crossover_preserves_gene_values(self):
        problem = self.make_problem()
        rng = np.random.default_rng(2)
        a, b = problem.random_genes(rng), problem.random_genes(rng)
        child_a, child_b = batch_uniform_crossover(
            rng, np.vstack([a, b]), crossover_probability=1.0
        )
        for i in range(problem.n_genes):
            assert {child_a[i], child_b[i]} == {a[i], b[i]}

    def test_mutation_stays_within_bounds(self):
        problem = self.make_problem()
        rng = np.random.default_rng(3)
        genes = problem.random_genes(rng)
        (mutated,) = batch_mutate(problem, genes[None], rng, gene_mutation_probability=1.0)
        for i in range(problem.n_genes):
            lo, hi = problem.gene_bounds(i)
            assert lo <= mutated[i] <= hi
