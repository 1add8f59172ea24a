"""Property tests: the vectorized GA kernels exactly equal their scalar oracles.

Every vectorized kernel is checked against its scalar reference in
``ga_oracles.py`` for *exact* equality — same fronts in the same order,
bit-identical crowding distances and objectives — on adversarial inputs:
duplicated objective vectors, degenerate fronts where every point ties on
one objective, infeasible (-1, -1) rows, and partitions whose repair has to
serialise conflicting jobs.
"""

import numpy as np
import pytest
from ga_oracles import (
    evaluate,
    reference_crowding_distance,
    reference_fast_non_dominated_sort,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MS, IOTask
from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.nsga2 import crowding_distance, fast_non_dominated_sort
from repro.scheduling.ga.reconfiguration import evaluate_batch

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Small value pool so duplicates and degenerate (all-equal) fronts are common.
objective_values = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0])


def objective_sets(n_objectives):
    return st.lists(
        st.tuples(*[objective_values] * n_objectives), min_size=1, max_size=24
    )


class TestDominationKernels:
    @given(objectives=objective_sets(2))
    @PROPERTY_SETTINGS
    def test_fast_non_dominated_sort_equals_reference_exactly(self, objectives):
        # Not just the same partition into fronts: the same index order within
        # each front, so every downstream tie-break behaves identically.
        assert fast_non_dominated_sort(objectives) == reference_fast_non_dominated_sort(
            objectives
        )

    @pytest.mark.parametrize("n_objectives", [1, 3])
    def test_fast_non_dominated_sort_rejects_other_objective_counts(self, n_objectives):
        with pytest.raises(ValueError):
            fast_non_dominated_sort(np.zeros((4, n_objectives)))

    @given(objectives=st.integers(1, 3).flatmap(objective_sets))
    @PROPERTY_SETTINGS
    def test_crowding_distance_equals_reference_bitwise(self, objectives):
        for front in reference_fast_non_dominated_sort(objectives):
            vectorized = crowding_distance(objectives, front)
            reference = reference_crowding_distance(objectives, front)
            assert vectorized.keys() == reference.keys()
            for index in reference:
                # == on floats: inf == inf holds and any ULP drift fails.
                assert vectorized[index] == reference[index]


def build_problem(task_params):
    tasks = []
    for t, (period_ms, wcet_ms, delta_ms, theta_ms, priority) in enumerate(task_params):
        tasks.append(
            IOTask(
                name=f"t{t}",
                wcet=wcet_ms * MS,
                period=period_ms * MS,
                priority=priority,
                ideal_offset=delta_ms * MS,
                theta=theta_ms * MS,
            )
        )
    horizon = 80 * MS
    jobs = [task.job(i) for task in tasks for i in range(horizon // task.period)]
    return GAProblem(jobs=jobs, horizon=horizon)


task_param_lists = st.lists(
    st.tuples(
        st.sampled_from([20, 40, 80]),  # period (ms)
        st.integers(1, 6),  # wcet (ms)
        st.integers(0, 15),  # ideal offset (ms)
        st.integers(0, 12),  # theta (ms)
        st.integers(1, 3),  # priority
    ),
    min_size=1,
    max_size=5,
)


class TestBatchedFitnessKernels:
    @given(task_params=task_param_lists, seed=st.integers(0, 10_000))
    @PROPERTY_SETTINGS
    def test_evaluate_batch_matches_scalar_evaluate(self, task_params, seed):
        problem = build_problem(task_params)
        rng = np.random.default_rng(seed)
        population = problem.random_population(8, rng)
        objectives, starts, feasible = evaluate_batch(problem, population)
        for row in range(population.shape[0]):
            psi_value, upsilon_value, schedule = evaluate(problem.jobs, population[row])
            assert objectives[row, 0] == psi_value
            assert objectives[row, 1] == upsilon_value
            assert feasible[row] == (schedule is not None)
            if schedule is not None:
                scalar_starts = [schedule.start_of(job) for job in problem.jobs]
                assert scalar_starts == list(starts[row])
