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

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx

from repro.core.task import IOJob


@dataclass
class DependencyGraphs:
    """The conflict graph of a job set together with its connected components."""

    graph: nx.Graph
    jobs: List[IOJob]

    @property
    def components(self) -> List[Set[Tuple[str, int]]]:
        """Connected components, each a set of job keys."""
        return [set(component) for component in nx.connected_components(self.graph)]

    def penalty_weight(self, job: IOJob) -> int:
        """Penalty weight ``psi`` of a job: its degree in the conflict graph."""
        return int(self.graph.degree(job.key))


def build_dependency_graphs(jobs: Sequence[IOJob]) -> DependencyGraphs:
    """Phase 1 of Algorithm 1: build the conflict graph of the ideal executions.

    Nodes are jobs; an edge links two jobs whose ideal executions overlap.
    Connected components correspond to the dependency graphs ``G_1 … G_n`` of
    the paper.
    """
    graph = nx.Graph()
    ordered = sorted(jobs, key=lambda j: (j.ideal_start, j.key))
    for job in ordered:
        graph.add_node(job.key, job=job)
    # Sweep over jobs ordered by ideal start: only nearby jobs can overlap, so
    # the inner loop stops as soon as the next job starts after the current
    # job's ideal finish.
    for i, job in enumerate(ordered):
        ideal_finish = job.ideal_start + job.wcet
        for other in ordered[i + 1:]:
            if other.ideal_start >= ideal_finish:
                break
            graph.add_edge(job.key, other.key)
    return DependencyGraphs(graph=graph, jobs=list(ordered))


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
    re-allocation), then towards the later ideal start for determinism.

    The selection loop runs on a plain adjacency dict rather than a mutable
    networkx copy — the victim choice is identical (the final ``key``
    tie-break makes it unique regardless of iteration order) and the
    per-round cost drops to dict/set operations.
    """
    adjacency: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {
        key: set(graphs.graph[key]) for key in graphs.graph.nodes
    }
    job_of: Dict[Tuple[str, int], IOJob] = {
        key: graphs.graph.nodes[key]["job"] for key in graphs.graph.nodes
    }
    sacrificed: List[IOJob] = []
    edges_remaining = sum(len(neighbours) for neighbours in adjacency.values()) // 2

    while edges_remaining:
        # Pick the node with the highest degree; tie-break by lowest priority,
        # then latest ideal start, then job key (full determinism).
        victim_key = max(
            (key for key, neighbours in adjacency.items() if neighbours),
            key=lambda key: (
                len(adjacency[key]),
                -job_of[key].priority,
                job_of[key].ideal_start,
                key,
            ),
        )
        neighbours = adjacency.pop(victim_key)
        for other in neighbours:
            adjacency[other].discard(victim_key)
        edges_remaining -= len(neighbours)
        sacrificed.append(job_of[victim_key])

    kept = sorted(
        (job_of[key] for key in adjacency),
        key=lambda j: (j.ideal_start, j.key),
    )
    sacrificed.sort(key=lambda j: (-j.priority, j.ideal_start, j.key))
    return kept, sacrificed
