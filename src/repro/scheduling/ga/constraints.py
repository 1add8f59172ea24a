"""The GA formulation's constraints (Section III-B).

* **Constraint 1** — every job executes inside its release window:
  ``T_i*j <= kappa_i^j <= T_i*j + D_i - C_i``.
* **Constraint 2** — the executions of two jobs never overlap:
  ``kappa_i^j + C_i <= kappa_x^q`` or ``kappa_i^j >= kappa_x^q + C_x``.
* **Constraint 2*** — the refinement of Constraint 2 to the bounded set of
  jobs of other tasks that can actually be released during the window of
  ``lambda_i^j`` (Equations (4) and (5) bound the first and last interfering
  job index of each other task).

The kernels check whole ``(pop, n_jobs)`` start-time matrices at once
against a :class:`~repro.scheduling.ga.encoding.CompiledPartition` and
return per-row counts.  Constraint 2* only narrows which pairs Constraint 2
must compare; the kernels need no such bound, because a row has an
overlapping pair iff two jobs adjacent in start order overlap.  The counts
agree exactly with the scalar checks kept as test oracles in
``tests/scheduling/ga_oracles.py`` (property tested).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.scheduling.ga.encoding import CompiledPartition


def constraint1_matrix(
    compiled: CompiledPartition, starts_matrix: np.ndarray
) -> np.ndarray:
    """Constraint-1 satisfaction of every (row, job) start in one comparison.

    Returns a ``(pop, n_jobs)`` bool matrix: ``True`` where the start lies in
    the job's release window ``[release, deadline - wcet]``.
    """
    starts = np.asarray(starts_matrix, dtype=np.int64)
    return (starts >= compiled.release) & (starts <= compiled.latest)


def count_conflicts_batch(
    compiled: CompiledPartition, starts_matrix: np.ndarray
) -> np.ndarray:
    """Per-row overlapping-pair counts of a start-time matrix (Constraint 2).

    Jobs are ordered by start (stable, ties by job index) and adjacent
    overlaps counted.
    """
    starts = np.asarray(starts_matrix, dtype=np.int64)
    n_rows, n = starts.shape
    if n < 2:
        return np.zeros(n_rows, dtype=np.int64)
    order = np.argsort(starts, axis=1, kind="stable")
    ordered_starts = np.take_along_axis(starts, order, axis=1)
    ordered_wcet = compiled.wcet[order]
    overlaps = ordered_starts[:, :-1] + ordered_wcet[:, :-1] > ordered_starts[:, 1:]
    return overlaps.sum(axis=1).astype(np.int64)


def violations_batch(
    compiled: CompiledPartition, starts_matrix: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-row Constraint-1 and Constraint-2 violation counts of a start-time matrix."""
    c1 = (~constraint1_matrix(compiled, starts_matrix)).sum(axis=1).astype(np.int64)
    return {
        "constraint1": c1,
        "constraint2": count_conflicts_batch(compiled, starts_matrix),
    }
