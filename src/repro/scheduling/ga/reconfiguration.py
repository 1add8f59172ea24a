"""Reconfiguration (repair) function of the GA (Section III-B).

Applied to every individual before the objective functions, the
reconfiguration resolves execution conflicts while preserving the execution
order implied by the genes, and opportunistically snaps jobs back to their
ideal start times when doing so causes no conflict:

1. order jobs by their encoded start times (ties: higher priority first, as
   footnote 2 of the paper specifies);
2. assign realised start times sequentially, delaying a job just enough to
   clear the previous job's execution (and never before its release);
3. for each job, if the device is idle around its ideal start time and the
   ideal start lies inside its release window, move it there;
4. if any job now misses its deadline the individual is infeasible and both
   objectives evaluate to -1.

:func:`evaluate_batch` repairs and scores a whole ``(pop, n_genes)``
population matrix at once through
:class:`~repro.scheduling.ga.encoding.CompiledPartition` arrays, with no
loop over job positions.  The forward conflict-resolution scan is a running
maximum (``start_k = W_{k-1} + max_{j<=k}(base_j - W_{j-1})`` with ``W`` the
cumulative WCET).  The snap pass is in closed form: whether job k snaps is a
function of whether job k-1 did (constant, identity or negation), so each
bit is the value at the last constant position XOR the parity of the
negations since — one ``maximum.accumulate`` and one
``logical_xor.accumulate`` per batch.  Its objectives, repaired starts and
feasibility are bit-identical to the scalar per-individual repair, down to
floating-point summation order; that scalar repair is kept as a test oracle
in ``tests/scheduling/ga_oracles.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.metrics import linear_quality
from repro.scheduling.ga.encoding import CompiledPartition, GAProblem


def _repair_batch(
    compiled: CompiledPartition, genes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched repair: ``(order, starts_sorted, ideal_sorted, feasible)``.

    ``order`` is the execution-order permutation per row; ``starts_sorted``
    the realised start times in that order (strictly increasing, since
    executions never overlap) and ``ideal_sorted`` the ideal starts in that
    order.
    """
    n_rows, n = genes.shape
    cells = np.arange(n_rows * n, dtype=np.int64).reshape(n_rows, n)

    # Execution order implied by the genes; same start -> higher priority first
    # (the composite key folds the (-priority, key) tie-break into the value).
    composite = genes * np.int64(n)
    composite += compiled.order_tiebreak
    order = np.argsort(composite, axis=1, kind="stable")

    wcet = compiled.wcet[order]
    ideal = compiled.ideal[order]

    # Forward scan: start_k = max(desired_k, release_k, finish_{k-1}) becomes a
    # prefix maximum over base_j - W_{j-1} (W = cumulative WCET), computed in
    # place to spare (pop, n_genes) temporaries.
    cum_before = np.cumsum(wcet, axis=1)
    cum_before -= wcet
    starts = genes.take(order + cells[:, :1])  # desired starts
    np.maximum(starts, compiled.release[order], out=starts)
    starts -= cum_before
    np.maximum.accumulate(starts, axis=1, out=starts)
    starts += cum_before

    # Opportunistic snap-to-ideal.  Eligibility against the *pre-snap* next
    # start is elementwise; whether job k clears its predecessor depends on
    # whether job k-1 snapped.  So each position maps that bit through one of
    # four functions of it: constant false, constant true, identity or
    # negation.  The bit at k is the value at the last constant position,
    # XOR the parity of the negations since.
    in_window = (compiled.release <= compiled.ideal) & (compiled.ideal <= compiled.latest)
    ideal_finish = ideal + wcet
    eligible = (starts != ideal) & in_window[order]
    eligible[:, :-1] &= ideal_finish[:, :-1] <= starts[:, 1:]
    eligible[:, 0] &= ideal[:, 0] >= 0  # the first job follows an idle device
    if_kept = eligible.copy()  # may job k snap if job k-1 kept its start?
    if_kept[:, 1:] &= ideal[:, 1:] >= starts[:, :-1] + wcet[:, :-1]
    if_snapped = eligible  # ... and if job k-1 snapped to its ideal start?
    if_snapped[:, 1:] &= ideal[:, 1:] >= ideal_finish[:, :-1]
    parity = np.logical_xor.accumulate(if_kept > if_snapped, axis=1)  # negations
    last_constant = np.where(if_kept == if_snapped, cells, 0)
    np.maximum.accumulate(last_constant, axis=1, out=last_constant)
    snap = if_kept.take(last_constant) ^ parity ^ parity.take(last_constant)
    np.copyto(starts, ideal, where=snap)

    feasible = ~(starts > compiled.latest[order]).any(axis=1)
    return order, starts, ideal, feasible


def _in_job_order(order: np.ndarray, sorted_rows: np.ndarray) -> np.ndarray:
    """Rows given in execution order, scattered back to problem job order."""
    n_rows, n = order.shape
    rows = np.empty_like(sorted_rows)
    rows.reshape(-1)[order + (np.arange(n_rows, dtype=np.int64) * n)[:, None]] = sorted_rows
    return rows


def _validate_matrix(compiled: CompiledPartition, genes_matrix: np.ndarray) -> np.ndarray:
    genes = np.ascontiguousarray(np.asarray(genes_matrix, dtype=np.int64))
    if genes.ndim != 2 or genes.shape[1] != compiled.n_jobs:
        raise ValueError(
            f"expected a (pop, {compiled.n_jobs}) gene matrix, got {genes.shape}"
        )
    return genes


def evaluate_batch(
    problem: GAProblem, genes_matrix: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objectives ``(Psi, Upsilon)`` of a whole population matrix.

    Returns ``(objectives, starts, feasible)``: a ``(pop, 2)`` float64
    objective matrix (``-1`` rows for infeasible individuals, exactly as the
    paper prescribes), the repaired ``(pop, n_genes)`` start times in problem
    job order (infeasible rows keep theirs, which miss a deadline), and the
    feasibility vector.

    Quality sums accumulate sequentially (``np.cumsum``) in execution order —
    the same associativity as the scalar metrics path — so the objectives are
    bit-identical to per-individual evaluation.
    """
    compiled = problem.compiled()
    genes = _validate_matrix(compiled, genes_matrix)
    n_rows, n = genes.shape
    objectives = np.full((n_rows, 2), -1.0, dtype=np.float64)
    if n == 0:
        objectives[:] = 1.0
        return objectives, genes.copy(), np.ones(n_rows, dtype=bool)

    order, starts_sorted, ideal_sorted, feasible = _repair_batch(compiled, genes)
    job_starts = _in_job_order(order, starts_sorted)
    # Only feasible rows are scored; the others keep their -1 objectives.
    rows = np.flatnonzero(feasible)
    if rows.size < n_rows:
        order, starts_sorted, ideal_sorted = order[rows], starts_sorted[rows], ideal_sorted[rows]
    v_max_sorted = compiled.v_max[order]

    # Psi: the fraction of exactly timing-accurate jobs.
    psi = (starts_sorted == ideal_sorted).sum(axis=1) / n

    # Upsilon: the linear quality curve, element-wise.
    distance = np.abs(starts_sorted - ideal_sorted)
    quality = linear_quality(
        distance, compiled.theta[order], v_max_sorted, compiled.v_min[order]
    )
    obtained = np.cumsum(quality, axis=1)[:, -1]
    ideal_total = np.cumsum(v_max_sorted, axis=1)[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        upsilon = np.where(ideal_total == 0, 1.0, obtained / ideal_total)

    objectives[rows, 0] = psi
    objectives[rows, 1] = upsilon
    return objectives, job_starts, feasible
