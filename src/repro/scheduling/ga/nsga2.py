"""A compact NSGA-II implementation for the two-objective I/O scheduling search.

The paper formulates the search as a two-objective maximisation of
``(Psi, Upsilon)`` over the job start times.  This module provides the generic
evolutionary machinery: fast non-dominated sorting, crowding distance,
binary-tournament selection on (rank, crowding), elitist environmental
selection, and an external archive of all feasible non-dominated individuals
encountered during the run (the paper returns "all the non-dominated solutions
being found during the search").

The generation loop runs on a ``(pop, n_genes)`` population matrix through
these array kernels, each the only implementation of its step (the scalar
algorithms they reproduce exactly live on as test oracles in
``tests/scheduling/ga_oracles.py``):

* :func:`fast_non_dominated_sort` sorts the two objectives in O(N log N)
  (Jensen, IEEE TEC 7(5), 2003): one sweep by Psi then Upsilon, both
  descending, finds each point's front by binary search over the fronts'
  last members.  A point's dominators in the previous front form a
  contiguous run of that front's sweep order, so the reference's order
  inside a front (by the position of the last dominator) is a maximum over
  that run;
* :func:`rank_and_crowding` returns the front rank and crowding distance of
  every point as arrays, from one lexsort per objective over all fronts;
  :func:`crowding_distance` is its one-front case;
* :meth:`ParetoArchive.merge` inserts a whole generation in one step: a
  candidate enters iff no earlier element weakly dominates it and no later
  element strictly dominates it, which is exactly the outcome (entries and
  order) of inserting the candidates one by one.

Determinism contract: each generation consumes a documented, fixed-shape
sequence of draws from the single ``numpy.random.Generator`` (see
:meth:`NSGA2._make_offspring`), so the whole run is a pure function of the
seed, the problem, and the search parameters — independent of worker count or
host.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.operators import (
    batch_mutate,
    batch_uniform_crossover,
    initial_population_matrix,
    tournament_winners,
)

Objectives = Tuple[float, ...]


def fast_non_dominated_sort(objectives: Sequence[Objectives]) -> List[List[int]]:
    """Deb's fast non-dominated sort of (Psi, Upsilon) points; fronts as index lists.

    The indices within each front are ordered exactly as the scalar reference
    emits them — front 0 ascending, later fronts by (position of the last
    dominator in the previous front, index) — so downstream tie-breaks are
    unchanged.  Only two objective columns are accepted: the search has
    exactly Psi and Upsilon.
    """
    obj = np.asarray(objectives, dtype=np.float64)
    if obj.shape[0] == 0:
        return []
    if obj.ndim != 2 or obj.shape[1] != 2:
        raise ValueError(f"expected (n, 2) objectives, got shape {obj.shape}")

    # Sweep by Psi descending, then Upsilon descending: every point swept
    # before q has x >= x_q, so it dominates q iff its y >= y_q and it is not
    # a duplicate of q.  Inside a front the sweep order has y non-decreasing,
    # so a front dominates q iff its last swept member does.
    x = obj[:, 0]
    y = obj[:, 1]
    sweep = np.lexsort((-y, -x))
    swept_x = x[sweep]
    swept_y = y[sweep]
    repeats = np.zeros(sweep.size, dtype=bool)
    repeats[1:] = (swept_x[1:] == swept_x[:-1]) & (swept_y[1:] == swept_y[:-1])

    last_y: List[float] = []  # -y of each front's last member; non-decreasing
    members: List[List[int]] = []  # each front in sweep order
    member_y: List[List[float]] = []
    runs: List[List[Tuple[int, int, int]]] = []  # (q, lo, hi) per front
    rank = lo = hi = 0
    for q, yq, repeat in zip(sweep.tolist(), swept_y.tolist(), repeats.tolist()):
        if not repeat:  # a duplicate shares its predecessor's front and run
            rank = bisect_right(last_y, -yq)
            if rank == len(last_y):
                last_y.append(-yq)
                members.append([])
                member_y.append([])
                runs.append([])
            else:
                last_y[rank] = -yq
            if rank:
                above = member_y[rank - 1]
                lo, hi = bisect_left(above, yq), len(above)
        members[rank].append(q)
        member_y[rank].append(yq)
        if rank:
            runs[rank].append((q, lo, hi))

    # The reference appends q when its last dominator in the previous front
    # is visited: order each front by the largest previous-front position
    # over q's run of dominators, then by index.
    position = [0] * sweep.size
    fronts = [sorted(members[0])]
    for rank in range(1, len(members)):
        for index, q in enumerate(fronts[-1]):
            position[q] = index
        swept_positions = [position[p] for p in members[rank - 1]]
        keyed = sorted((max(swept_positions[lo:hi]), q) for q, lo, hi in runs[rank])
        fronts.append([q for _, q in keyed])
    return fronts


def _front_crowding(obj: np.ndarray, front_of: np.ndarray) -> np.ndarray:
    """Crowding distances of points listed front by front.

    ``obj`` holds the points in front order (``front_of`` non-decreasing);
    within a front, ties on an objective keep that order, as the reference's
    stable sort does.  Each distance is built from the same float operations
    in the same order as the reference, so the results are bit-identical.
    """
    size, n_objectives = obj.shape
    distance = np.zeros(size, dtype=np.float64)
    if size == 0:
        return distance
    first = np.ones(size, dtype=bool)
    first[1:] = front_of[1:] != front_of[:-1]
    last = np.ones(size, dtype=bool)
    last[:-1] = first[1:]
    front = np.cumsum(first) - 1
    lo_at = np.flatnonzero(first)[front]
    hi_at = np.flatnonzero(last)[front]
    boundary = first | last
    for m in range(n_objectives):
        # One stable sort by (front, value) orders every front at once.
        by_value = np.lexsort((obj[:, m], front_of))
        values = obj[by_value, m]
        span = values[hi_at] - values[lo_at]
        distance[by_value[boundary]] = np.inf
        gaps = np.flatnonzero(~boundary & (span != 0))
        distance[by_value[gaps]] += (values[gaps + 1] - values[gaps - 1]) / span[gaps]
    return distance


def rank_and_crowding(objectives: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance of every point, as two arrays."""
    obj = np.asarray(objectives, dtype=np.float64)
    fronts = fast_non_dominated_sort(obj)
    order = np.fromiter(chain.from_iterable(fronts), dtype=np.int64, count=obj.shape[0])
    front_of = np.repeat(
        np.arange(len(fronts), dtype=np.int64), [len(front) for front in fronts]
    )
    rank = np.empty(obj.shape[0], dtype=np.int64)
    rank[order] = front_of
    crowding = np.empty(obj.shape[0], dtype=np.float64)
    crowding[order] = _front_crowding(obj[order], front_of)
    return rank, crowding


def crowding_distance(
    objectives: Sequence[Objectives], front: Sequence[int]
) -> Dict[int, float]:
    """Crowding distance of the individuals in one front (bit-identical to the reference)."""
    front = list(front)
    if not front:
        return {}
    obj = np.asarray(objectives, dtype=np.float64)[front]
    distance = _front_crowding(obj, np.zeros(len(front), dtype=np.int64))
    return {int(index): value for index, value in zip(front, distance.tolist())}


@dataclass
class ArchiveEntry:
    """A feasible non-dominated individual retained in the external archive."""

    genes: np.ndarray
    objectives: Objectives
    payload: object = None


class ParetoArchive:
    """External archive of feasible non-dominated solutions found so far.

    Entries stay in insertion order.  :meth:`merge` inserts a batch of
    candidates with a few ``(M, M)`` comparisons over the archive and the
    batch together; :meth:`add` is its one-row case.
    """

    def __init__(self) -> None:
        self._entries: List[ArchiveEntry] = []
        self._matrix: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> List[ArchiveEntry]:
        return list(self._entries)

    def add(self, genes: np.ndarray, objectives: Objectives, payload: object = None) -> bool:
        """Insert a candidate; returns True if it enters the archive."""
        return bool(self.merge(np.asarray(genes)[None], [objectives], [payload])[0])

    def merge(
        self,
        genes: np.ndarray,
        objectives: np.ndarray,
        payloads: Sequence[object],
    ) -> np.ndarray:
        """Insert candidate rows in order; returns the mask of those now in the archive.

        The archive ends up exactly as if each row had been inserted on its
        own, in order.  A sequential insert rejects a candidate that some
        entry weakly dominates, and every element seen so far is weakly
        dominated by some entry.  So a candidate is rejected iff an earlier
        element (entry or candidate) weakly dominates it.  An accepted
        element is later displaced iff a later element strictly dominates
        it.
        """
        candidates = np.asarray(objectives, dtype=np.float64)
        if candidates.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        n_entries = len(self._entries)
        combined = (
            candidates if self._matrix is None else np.vstack([self._matrix, candidates])
        )
        # weakly[p, q]: p >= q on every objective.
        weakly = np.ones((combined.shape[0],) * 2, dtype=bool)
        for column in combined.T:
            weakly &= column[:, None] >= column[None, :]
        strictly = weakly & ~weakly.T
        kept = ~(np.triu(weakly, 1).any(axis=0) | np.tril(strictly, -1).any(axis=0))
        entered = kept[n_entries:]
        self._entries = [
            entry for entry, keep in zip(self._entries, kept.tolist()) if keep
        ] + [
            ArchiveEntry(
                genes=np.array(genes[row]),
                objectives=tuple(candidates[row].tolist()),
                payload=payloads[row],
            )
            for row in np.flatnonzero(entered).tolist()
        ]
        self._matrix = combined[kept]
        return entered

    def best_by(self, objective_index: int) -> Optional[ArchiveEntry]:
        """Archive entry with the best value of one objective (ties: best other objectives)."""
        if not self._entries:
            return None
        return max(
            self._entries,
            key=lambda entry: (
                entry.objectives[objective_index],
                sum(entry.objectives),
            ),
        )


@dataclass
class NSGA2Result:
    """Outcome of one NSGA-II run."""

    archive: ParetoArchive
    generations_run: int
    evaluations: int


#: Batch evaluator signature: ``(pop, n_genes) matrix -> ((pop, 2) objective
#: matrix, payload list)``.  Payload ``None`` marks an infeasible row.
BatchEvaluator = Callable[[np.ndarray], Tuple[np.ndarray, List[object]]]


class NSGA2:
    """Elitist non-dominated-sorting GA over a :class:`GAProblem`.

    The population lives as a ``(pop, n_genes)`` int64 matrix; one generation
    consumes exactly six fixed-shape draws from the run's single
    ``numpy.random.Generator`` (see :meth:`_make_offspring`), which pins the
    RNG stream to the seed regardless of how fitness is computed.
    """

    def __init__(
        self,
        problem: GAProblem,
        *,
        evaluate_batch: BatchEvaluator,
        population_size: int = 100,
        generations: int = 100,
        crossover_probability: float = 0.9,
        gene_mutation_probability: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        seeds: Optional[Sequence[np.ndarray]] = None,
    ):
        if population_size < 4:
            raise ValueError("population size must be at least 4")
        self.problem = problem
        self.evaluate_batch = evaluate_batch
        self.population_size = population_size
        self.generations = generations
        self.crossover_probability = crossover_probability
        if gene_mutation_probability is None:
            gene_mutation_probability = 1.0 / max(1, problem.n_genes)
        self.gene_mutation_probability = gene_mutation_probability
        self.rng = rng if rng is not None else np.random.default_rng()
        self.seeds = list(seeds or [])

    # -- main loop ---------------------------------------------------------

    def run(self) -> NSGA2Result:
        archive = ParetoArchive()
        evaluations = 0

        population = initial_population_matrix(
            self.problem, self.population_size, self.rng, seeds=self.seeds
        )
        objectives = self._evaluate_matrix(population, archive)
        evaluations += population.shape[0]

        generations_run = 0
        for _ in range(self.generations):
            generations_run += 1
            offspring = self._make_offspring(population, objectives)
            offspring_objectives = self._evaluate_matrix(offspring, archive)
            evaluations += offspring.shape[0]

            population, objectives = self._environmental_selection(
                np.vstack([population, offspring]),
                np.vstack([objectives, offspring_objectives]),
            )

        return NSGA2Result(
            archive=archive, generations_run=generations_run, evaluations=evaluations
        )

    # -- internals -----------------------------------------------------------

    def _evaluate_matrix(self, population: np.ndarray, archive: ParetoArchive) -> np.ndarray:
        """Score every row of a population matrix; merge the feasible rows into the archive.

        Rows are scored even when an identical row was scored before: a
        row's objectives do not depend on the rest of its batch, and the
        archive rejects a repeat (some entry weakly dominates it).
        """
        objectives, payloads = self.evaluate_batch(population)
        objectives = np.asarray(objectives, dtype=np.float64)
        rows = [
            row
            for row in np.flatnonzero((objectives >= 0.0).all(axis=1)).tolist()
            if payloads[row] is not None
        ]
        if rows:
            archive.merge(population[rows], objectives[rows], [payloads[row] for row in rows])
        return objectives

    def _make_offspring(
        self, population: np.ndarray, objectives: np.ndarray
    ) -> np.ndarray:
        """One generation of variation.  Fixed per-generation RNG draw order:

        1. tournament candidate indices — ``integers(0, pop, size=(2k, 2))``
           with ``k = (population_size + 1) // 2``;
        2. crossover coins — ``random(k)``;
        3. crossover swap masks — ``random((k, n_genes))``;
        4. mutation coins — ``random((2k, n_genes))``;
        5. snap-to-ideal coins — ``random((2k, n_genes))``;
        6. mutation resamples — ``integers(lo, hi + 1, size=(2k, n_genes))``.

        Every shape depends only on the search parameters, never on the coin
        outcomes, so the stream is reproducible by construction.  The last
        child is dropped when ``population_size`` is odd.
        """
        rank, crowding = rank_and_crowding(objectives)
        n_children = 2 * ((self.population_size + 1) // 2)
        winners = tournament_winners(self.rng, rank, crowding, n_children)
        children = batch_uniform_crossover(
            self.rng, population[winners], self.crossover_probability
        )
        mutated = batch_mutate(
            self.problem,
            children,
            self.rng,
            gene_mutation_probability=self.gene_mutation_probability,
        )
        return mutated[: self.population_size]

    def _environmental_selection(
        self,
        combined: np.ndarray,
        combined_objectives: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        fronts = fast_non_dominated_sort(combined_objectives)
        selected: List[int] = []
        for front in fronts:
            if len(selected) + len(front) <= self.population_size:
                selected.extend(front)
                continue
            distances = crowding_distance(combined_objectives, front)
            remaining = sorted(front, key=lambda index: -distances[index])
            selected.extend(remaining[: self.population_size - len(selected)])
            break
        chosen = np.asarray(selected, dtype=np.int64)
        return combined[chosen], combined_objectives[chosen]
