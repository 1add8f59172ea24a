"""Chromosome encoding of the GA scheduling problem.

One individual encodes the start time ``kappa_i^j`` of every job of the
partition as a vector of integers, in a fixed job order.  Genes are
initialised and mutated inside the timing boundary
``[ideal - theta, ideal + theta]`` (clamped to the release window), as the
paper specifies; the reconfiguration function may push the realised start
times outside the boundary to resolve conflicts.

Populations are array-encoded: a population is a ``(pop, n_genes)`` int64
matrix whose rows are individuals.  :class:`CompiledPartition` precomputes
every per-job quantity the vectorized operators and the batched fitness
evaluation need (release windows, timing boundaries, quality-curve
parameters, sort tie-breaks) as flat numpy arrays in problem job order, so
the whole GA inner loop runs without touching :class:`IOJob` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import FlatSchedule
from repro.core.task import IOJob


@dataclass(frozen=True)
class CompiledPartition:
    """Per-job arrays of one GA partition, in problem job order.

    All integer arrays are int64 (microseconds); quality parameters are
    float64.  ``order_tiebreak`` ranks the jobs by ``(-priority, key)`` so the
    repair function's execution-order sort ``(gene, -priority, key)`` reduces
    to one integer composite key ``gene * n_jobs + order_tiebreak``.
    """

    n_jobs: int
    release: np.ndarray
    wcet: np.ndarray
    deadline: np.ndarray
    latest: np.ndarray  # deadline - wcet (Constraint-1 upper bound)
    ideal: np.ndarray
    theta: np.ndarray
    v_max: np.ndarray
    v_min: np.ndarray
    lo: np.ndarray  # initialisation/mutation lower bounds (timing boundary)
    hi: np.ndarray  # initialisation/mutation upper bounds
    ideal_clamped: np.ndarray  # ideal start clamped into [lo, hi] (mutation snap target)
    order_tiebreak: np.ndarray

    @classmethod
    def from_jobs(cls, jobs: Sequence[IOJob], bounds: Sequence[Tuple[int, int]]) -> "CompiledPartition":
        n = len(jobs)
        release = np.array([j.release for j in jobs], dtype=np.int64)
        wcet = np.array([j.wcet for j in jobs], dtype=np.int64)
        deadline = np.array([j.deadline for j in jobs], dtype=np.int64)
        ideal = np.array([j.ideal_start for j in jobs], dtype=np.int64)
        theta = np.array([j.task.theta for j in jobs], dtype=np.int64)
        v_max = np.array([j.task.v_max for j in jobs], dtype=np.float64)
        v_min = np.array([j.task.v_min for j in jobs], dtype=np.float64)
        lo = np.array([b[0] for b in bounds], dtype=np.int64)
        hi = np.array([b[1] for b in bounds], dtype=np.int64)
        # Rank of (-priority, key): position in the repair's tie-break order.
        by_tiebreak = sorted(range(n), key=lambda i: (-jobs[i].priority, jobs[i].key))
        order_tiebreak = np.empty(n, dtype=np.int64)
        order_tiebreak[by_tiebreak] = np.arange(n, dtype=np.int64)
        return cls(
            n_jobs=n,
            release=release,
            wcet=wcet,
            deadline=deadline,
            latest=deadline - wcet,
            ideal=ideal,
            theta=theta,
            v_max=v_max,
            v_min=v_min,
            lo=lo,
            hi=hi,
            ideal_clamped=np.clip(ideal, lo, hi),
            order_tiebreak=order_tiebreak,
        )


@dataclass
class GAProblem:
    """The per-partition scheduling problem the GA optimises."""

    jobs: List[IOJob]
    horizon: int

    def __post_init__(self) -> None:
        self.jobs = sorted(self.jobs, key=lambda j: (j.release, j.key))
        devices = {job.device for job in self.jobs}
        if len(devices) > 1:
            raise ValueError(
                f"a GAProblem covers a single device partition, got {sorted(devices)}"
            )
        self._compiled: Optional[CompiledPartition] = None
        self._table: Optional[FlatSchedule] = None

    @property
    def n_genes(self) -> int:
        return len(self.jobs)

    def gene_bounds(self, index: int) -> Tuple[int, int]:
        """Initialisation/mutation bounds: the timing boundary, clamped to the window."""
        job = self.jobs[index]
        lo, hi = job.window
        if hi < lo:
            # Degenerate boundary (theta smaller than needed); fall back to the
            # full release window so the gene stays well-defined.
            return self.full_bounds(index)
        return lo, hi

    def full_bounds(self, index: int) -> Tuple[int, int]:
        """Constraint-1 bounds: the full release window ``[release, deadline - C]``."""
        job = self.jobs[index]
        return job.release, job.deadline - job.wcet

    def ideal_genes(self) -> np.ndarray:
        """Gene vector with every job at its ideal start time."""
        return np.array([job.ideal_start for job in self.jobs], dtype=np.int64)

    def random_genes(self, rng: np.random.Generator) -> np.ndarray:
        """Random gene vector drawn uniformly inside the timing boundaries."""
        return self.random_population(1, rng)[0]

    def random_population(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Random ``(size, n_genes)`` population matrix, one batched draw.

        The bounded-integer values for the whole matrix are drawn in a single
        ``Generator.integers`` call (row-major), so the result is a pure
        function of the generator state regardless of population size.
        """
        compiled = self.compiled()
        if self.n_genes == 0:
            return np.empty((size, 0), dtype=np.int64)
        return rng.integers(
            compiled.lo, compiled.hi + 1, size=(size, self.n_genes), dtype=np.int64
        )

    def clamp(self, genes: np.ndarray) -> np.ndarray:
        """Clamp a gene vector into the Constraint-1 windows (in place safe copy)."""
        compiled = self.compiled()
        clamped = np.asarray(genes).astype(np.int64, copy=True)
        np.clip(clamped, compiled.release, compiled.latest, out=clamped)
        return clamped

    def compiled(self) -> CompiledPartition:
        """The partition's per-job arrays (computed once, then cached)."""
        if self._compiled is None:
            bounds = [self.gene_bounds(index) for index in range(self.n_genes)]
            self._compiled = CompiledPartition.from_jobs(self.jobs, bounds)
        return self._compiled

    def table(self) -> FlatSchedule:
        """The jobs, in problem job order, as a flat schedule at their ideal
        starts (computed once, then cached); a repaired start-time row is a
        start vector over it."""
        if self._table is None:
            self._table = FlatSchedule.of_jobs(self.jobs)
        return self._table
