"""Variation operators for the GA search: initialisation, crossover, mutation.

Genes are integer start times.  Initialisation and mutation sample uniformly
inside each job's timing boundary (per the paper); crossover is uniform, which
suits the job-wise independent structure of the chromosome.

The operators (:func:`initial_population_matrix`,
:func:`tournament_winners`, :func:`batch_uniform_crossover`,
:func:`batch_mutate`) act on a whole ``(pop, n_genes)`` population matrix
with a fixed number of fixed-shape draws from one ``numpy.random.Generator``,
which makes the GA's RNG stream a pure function of the seed — the per-
generation draw order is documented in :class:`~repro.scheduling.ga.nsga2.NSGA2`.
A single individual is a one-row matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.scheduling.ga.encoding import GAProblem

#: Fraction of mutations that snap the gene to the job's ideal start time
#: instead of a uniform resample (see :func:`batch_mutate`).
SNAP_TO_IDEAL_PROBABILITY = 0.2


def initial_population_matrix(
    problem: GAProblem,
    size: int,
    rng: np.random.Generator,
    seeds: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Random initial ``(size, n_genes)`` population matrix, optionally seeded.

    Seeds (e.g. the heuristic scheduler's solution, or the all-ideal-start
    vector) are clamped into the Constraint-1 windows and inserted first; the
    remainder of the population is drawn uniformly inside the timing
    boundaries in a single batched draw.
    """
    if size <= 0:
        raise ValueError("population size must be positive")
    seed_rows = [problem.clamp(np.asarray(seed, dtype=np.int64)) for seed in (seeds or [])]
    seed_rows = seed_rows[:size]
    n_random = size - len(seed_rows)
    random_rows = problem.random_population(n_random, rng) if n_random else None
    population = np.empty((size, problem.n_genes), dtype=np.int64)
    for row, seed in enumerate(seed_rows):
        population[row] = seed
    if random_rows is not None:
        population[len(seed_rows):] = random_rows
    return population


def tournament_winners(
    rng: np.random.Generator,
    rank: np.ndarray,
    crowding: np.ndarray,
    n_winners: int,
) -> np.ndarray:
    """Binary tournaments on (rank, crowding): ``n_winners`` population indices.

    Draws one ``(n_winners, 2)`` index matrix; each row is an ``(a, b)``
    tournament — lower rank wins, ties go to the larger crowding distance,
    with ``a`` favoured on exact ties.
    """
    n = rank.shape[0]
    candidates = rng.integers(0, n, size=(n_winners, 2))
    a, b = candidates[:, 0], candidates[:, 1]
    b_wins = (rank[b] < rank[a]) | ((rank[b] == rank[a]) & (crowding[b] > crowding[a]))
    return np.where(b_wins, b, a)


def batch_uniform_crossover(
    rng: np.random.Generator,
    parents: np.ndarray,
    crossover_probability: float,
    *,
    swap_probability: float = 0.5,
) -> np.ndarray:
    """Uniform crossover over consecutive parent pairs of a ``(2k, genes)`` matrix.

    Two fixed-shape draws: a ``(k,)`` coin vector deciding which pairs cross
    over, then a ``(k, genes)`` swap-mask matrix (drawn for every pair so the
    stream shape does not depend on the coins).  Children of non-crossing
    pairs are copies of their parents.
    """
    n_children, n_genes = parents.shape
    pairs = n_children // 2
    coins = rng.random(pairs) < crossover_probability
    masks = rng.random((pairs, n_genes)) < swap_probability
    swap = masks & coins[:, None]
    parent_a = parents[0::2]
    parent_b = parents[1::2]
    children = np.empty_like(parents)
    children[0::2] = np.where(swap, parent_b, parent_a)
    children[1::2] = np.where(swap, parent_a, parent_b)
    return children


def batch_mutate(
    problem: GAProblem,
    children: np.ndarray,
    rng: np.random.Generator,
    *,
    gene_mutation_probability: float,
    snap_to_ideal_probability: float = SNAP_TO_IDEAL_PROBABILITY,
) -> np.ndarray:
    """Vectorized per-gene mutation of a whole ``(pop, genes)`` matrix.

    A mutated gene is resampled inside its timing boundary, or, for a
    fraction of mutations, snapped to the job's ideal start time — a small
    exploitation bias that speeds up convergence towards exactly-accurate
    placements without changing the search space.

    Three fixed-shape draws: a mutation-coin matrix, a snap-coin matrix and a
    bounded resample matrix (all ``(pop, genes)``).
    """
    compiled = problem.compiled()
    pop, n_genes = children.shape
    if n_genes == 0:
        return children.copy()
    mutating = rng.random((pop, n_genes)) < gene_mutation_probability
    snapping = rng.random((pop, n_genes)) < snap_to_ideal_probability
    resampled = rng.integers(
        compiled.lo, compiled.hi + 1, size=(pop, n_genes), dtype=np.int64
    )
    replacement = np.where(snapping, compiled.ideal_clamped, resampled)
    return np.where(mutating, replacement, children)
