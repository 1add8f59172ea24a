"""Scalar reference implementations of the GA kernels (test oracles).

``repro.scheduling.ga`` runs only on array kernels.  These per-element
versions are the GA's original scalar code, kept here so the property tests
can check the kernels against them for exact equality:

* :func:`reference_fast_non_dominated_sort` and
  :func:`reference_crowding_distance` against ``fast_non_dominated_sort``,
  ``rank_and_crowding`` and ``crowding_distance`` (same fronts, same order
  inside each front, bit-identical distances);
* :func:`dominates` inside the sequential-insert oracle of
  ``ParetoArchive.merge``;
* :func:`reconfigure` / :func:`evaluate` against ``evaluate_batch``
  (objectives, repaired starts and feasibility);
* :func:`satisfies_constraint1`, :func:`count_conflicts` and
  :func:`violations` against ``constraint1_matrix``,
  ``count_conflicts_batch`` and ``violations_batch``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import Schedule
from repro.core.task import IOJob
from repro.scheduling.ga.nsga2 import Objectives


# -- NSGA-II -------------------------------------------------------------------


def dominates(a: Objectives, b: Objectives) -> bool:
    """Pareto dominance for maximisation: ``a`` is no worse everywhere and better somewhere."""
    at_least_as_good = all(x >= y for x, y in zip(a, b))
    strictly_better = any(x > y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def reference_fast_non_dominated_sort(
    objectives: Sequence[Objectives],
) -> List[List[int]]:
    """Scalar fast non-dominated sort (reference oracle)."""
    n = len(objectives)
    domination_count = [0] * n
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    fronts: List[List[int]] = [[]]

    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if dominates(objectives[p], objectives[q]):
                dominated_by[p].append(q)
            elif dominates(objectives[q], objectives[p]):
                domination_count[p] += 1
        if domination_count[p] == 0:
            fronts[0].append(p)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for p in fronts[current]:
            for q in dominated_by[p]:
                domination_count[q] -= 1
                if domination_count[q] == 0:
                    next_front.append(q)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def reference_crowding_distance(
    objectives: Sequence[Objectives], front: Sequence[int]
) -> Dict[int, float]:
    """Scalar crowding distance (reference oracle)."""
    distances: Dict[int, float] = {index: 0.0 for index in front}
    if not front:
        return distances
    n_objectives = len(objectives[front[0]])
    for m in range(n_objectives):
        ordered = sorted(front, key=lambda index: objectives[index][m])
        lo = objectives[ordered[0]][m]
        hi = objectives[ordered[-1]][m]
        distances[ordered[0]] = float("inf")
        distances[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for position in range(1, len(ordered) - 1):
            previous = objectives[ordered[position - 1]][m]
            following = objectives[ordered[position + 1]][m]
            distances[ordered[position]] += (following - previous) / (hi - lo)
    return distances


# -- reconfiguration (repair) ----------------------------------------------------


def reconfigure(
    jobs: Sequence[IOJob],
    genes: Sequence[int],
) -> Optional[Schedule]:
    """Repair a gene vector into a conflict-free schedule, or ``None`` if infeasible."""
    if len(jobs) != len(genes):
        raise ValueError("genes and jobs must have the same length")
    if not jobs:
        return Schedule()

    # Execution order implied by the genes; same start time -> higher priority first.
    order = sorted(
        range(len(jobs)),
        key=lambda i: (int(genes[i]), -jobs[i].priority, jobs[i].key),
    )

    starts: List[Tuple[IOJob, int]] = []
    device_free_at = 0
    for index in order:
        job = jobs[index]
        desired = int(genes[index])
        start = max(desired, device_free_at, job.release)
        starts.append((job, start))
        device_free_at = start + job.wcet

    # Opportunistic snap-to-ideal: a job may move to its ideal start time if the
    # move keeps it inside its release window and clear of its neighbours.
    for position, (job, start) in enumerate(starts):
        ideal = job.ideal_start
        if start == ideal:
            continue
        if not (job.release <= ideal <= job.deadline - job.wcet):
            continue
        previous_finish = 0
        if position > 0:
            prev_job, prev_start = starts[position - 1]
            previous_finish = prev_start + prev_job.wcet
        next_start = None
        if position + 1 < len(starts):
            next_start = starts[position + 1][1]
        if ideal < previous_finish:
            continue
        if next_start is not None and ideal + job.wcet > next_start:
            continue
        starts[position] = (job, ideal)

    schedule = Schedule()
    for job, start in starts:
        if start + job.wcet > job.deadline:
            return None
        schedule.set_start(job, start)
    return schedule


def evaluate(
    jobs: Sequence[IOJob],
    genes: Sequence[int],
) -> Tuple[float, float, Optional[Schedule]]:
    """Objectives ``(Psi, Upsilon)`` of an individual after reconfiguration.

    Infeasible individuals (a deadline miss survives the repair) score -1 on
    both objectives, exactly as the paper prescribes.
    """
    from repro.core.metrics import psi as _psi
    from repro.core.metrics import upsilon as _upsilon

    schedule = reconfigure(jobs, genes)
    if schedule is None:
        return -1.0, -1.0, None
    return _psi(schedule), _upsilon(schedule), schedule


# -- constraints -----------------------------------------------------------------


def satisfies_constraint1(job: IOJob, start: int) -> bool:
    """Constraint 1: the job starts in its release window and meets its deadline."""
    return job.release <= start <= job.deadline - job.wcet


def count_conflicts(jobs: Sequence[IOJob], starts: Sequence[int]) -> int:
    """Number of overlapping job pairs in a candidate assignment (diagnostic)."""
    order = sorted(range(len(jobs)), key=lambda i: starts[i])
    conflicts = 0
    for a, b in zip(order, order[1:]):
        if starts[a] + jobs[a].wcet > starts[b]:
            conflicts += 1
    return conflicts


def violations(jobs: Sequence[IOJob], starts: Sequence[int]) -> Dict[str, int]:
    """Summary of constraint violations of a candidate assignment (diagnostic)."""
    c1 = sum(
        0 if satisfies_constraint1(job, start) else 1
        for job, start in zip(jobs, starts)
    )
    return {"constraint1": c1, "constraint2": count_conflicts(jobs, starts)}
