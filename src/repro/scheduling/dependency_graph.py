"""Dependency-graph formation and decomposition (phases 1-2 of Algorithm 1).

Two jobs *conflict* if their ideal executions — each starting at its ideal
start time ``T_i * j + delta_i`` and lasting ``C_i`` — overlap on the shared
I/O device.  The dependency graphs are the connected components of the
conflict graph (Figure 2 of the paper).

Graph decomposition repeatedly removes (sacrifices) the job with the highest
penalty weight ``psi_i^j`` — its degree, i.e. the number of jobs whose exact
timing accuracy it would destroy — breaking ties towards the lowest-priority
job, until no conflicts remain.  The surviving jobs can all be executed
exactly at their ideal start times.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.core.task import IOJob


@dataclass
class DependencyGraphs:
    """The conflict graph of a job set, as adjacency lists over ``jobs``.

    ``jobs`` is sorted by ``(ideal_start, key)`` and ``adjacency[i]`` lists
    the positions of the jobs that conflict with ``jobs[i]``.  The conflict
    graph is an interval graph, so each connected component is a contiguous
    run of that order; ``component_starts`` holds the first position of each.
    """

    jobs: List[IOJob]
    adjacency: List[List[int]]
    component_starts: List[int]

    @property
    def components(self) -> List[Set[Tuple[str, int]]]:
        """Connected components, each a set of job keys."""
        bounds = self.component_starts + [len(self.jobs)]
        return [{job.key for job in self.jobs[lo:hi]} for lo, hi in zip(bounds, bounds[1:])]

    def penalty_weight(self, job: IOJob) -> int:
        """Penalty weight ``psi`` of a job: its degree in the conflict graph."""
        return len(self.adjacency[self.jobs.index(job)])


def build_dependency_graphs(jobs: Sequence[IOJob]) -> DependencyGraphs:
    """Phase 1 of Algorithm 1: build the conflict graph of the ideal executions.

    Nodes are jobs; an edge links two jobs whose ideal executions overlap.
    Connected components correspond to the dependency graphs ``G_1 … G_n`` of
    the paper.
    """
    ordered = sorted(jobs, key=lambda j: (j.ideal_start, j.key))
    starts = [job.ideal_start for job in ordered]
    adjacency: List[List[int]] = [[] for _ in ordered]
    component_starts: List[int] = []
    reach = 0  # running maximum of the ideal finishes so far
    # Sweep over jobs ordered by ideal start: job i conflicts with exactly
    # the later jobs that start before its ideal finish, and it opens a new
    # component iff it starts at or after every earlier job's ideal finish.
    for i, job in enumerate(ordered):
        finish = starts[i] + job.wcet
        if i == 0 or starts[i] >= reach:
            component_starts.append(i)
        reach = max(reach, finish)
        later = range(i + 1, bisect_left(starts, finish, i + 1))
        adjacency[i].extend(later)
        for other in later:
            adjacency[other].append(i)
    return DependencyGraphs(jobs=ordered, adjacency=adjacency, component_starts=component_starts)


def decompose_graphs(graphs: DependencyGraphs) -> Tuple[List[IOJob], List[IOJob]]:
    """Phase 2 of Algorithm 1: sacrifice high-penalty jobs until no conflicts remain.

    Returns ``(kept, sacrificed)``:

    * ``kept`` (the paper's ``lambda*``) — jobs that will execute exactly at
      their ideal start times;
    * ``sacrificed`` (the paper's ``lambda¬``) — jobs removed from the graphs,
      to be re-allocated into free slots by LCC-D.

    Within each component the job with the highest penalty weight (degree) is
    removed first; ties are broken towards the lowest priority (the paper notes
    a lower-priority job has a wider release window, hence more free slots for
    re-allocation), then towards the later ideal start, then the larger job
    key for determinism.

    Victims come from a lazy min-heap keyed ``(-degree, priority, -position)``:
    positions follow ``(ideal_start, key)``, so ``-position`` is the last two
    tie-breaks in one.  Degrees only fall, so a heap entry is current exactly
    when its degree equals the node's degree; stale entries are skipped.
    """
    jobs = graphs.jobs
    degree = [len(neighbours) for neighbours in graphs.adjacency]
    heap = [(-d, jobs[i].priority, -i) for i, d in enumerate(degree) if d]
    heapq.heapify(heap)
    removed = [False] * len(jobs)
    sacrificed: List[int] = []
    while heap:
        negative_degree, _, negative_position = heapq.heappop(heap)
        victim = -negative_position
        if degree[victim] != -negative_degree:
            continue
        removed[victim] = True
        degree[victim] = 0
        sacrificed.append(victim)
        for other in graphs.adjacency[victim]:
            if degree[other]:
                degree[other] -= 1
                if degree[other]:
                    heapq.heappush(heap, (-degree[other], jobs[other].priority, -other))

    kept = [job for job, gone in zip(jobs, removed) if not gone]
    sacrificed.sort(key=lambda i: (-jobs[i].priority, i))
    return kept, [jobs[i] for i in sacrificed]
