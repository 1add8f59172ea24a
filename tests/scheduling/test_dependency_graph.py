"""Unit tests for dependency-graph formation and decomposition (Algorithm 1, phases 1-2)."""

import pytest

from repro.core import MS, IOTask
from repro.scheduling import build_dependency_graphs, decompose_graphs


def job_at(name, ideal_offset, wcet=2 * MS, period=100 * MS, priority=1):
    task = IOTask(
        name=name,
        wcet=wcet,
        period=period,
        priority=priority,
        ideal_offset=ideal_offset,
        theta=10 * MS,
    )
    return task.job(0)


class TestGraphFormation:
    def test_isolated_job_forms_singleton_component(self):
        graphs = build_dependency_graphs([job_at("a", 5 * MS)])
        assert len(graphs.components) == 1
        assert graphs.penalty_weight(graphs.jobs[0]) == 0

    def test_paper_figure2_example(self):
        # Reconstruction of Figure 2: nine jobs, four dependency graphs.
        jobs = [
            job_at("j1", 0 * MS, wcet=3 * MS),            # isolated
            job_at("j2", 10 * MS, wcet=4 * MS),
            job_at("j3", 13 * MS, wcet=4 * MS),            # overlaps j2 and j4
            job_at("j4", 16 * MS, wcet=3 * MS),            # overlaps j3 and j5
            job_at("j5", 18 * MS, wcet=3 * MS),            # overlaps j4
            job_at("j6", 25 * MS, wcet=3 * MS),            # isolated
            job_at("j7", 40 * MS, wcet=5 * MS),
            job_at("j8", 42 * MS, wcet=5 * MS),
            job_at("j9", 44 * MS, wcet=5 * MS),
        ]
        graphs = build_dependency_graphs(jobs)
        components = graphs.components
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 1, 3, 4]

    def test_penalty_weight_counts_conflicts(self):
        jobs = [
            job_at("a", 10 * MS, wcet=4 * MS),
            job_at("b", 12 * MS, wcet=4 * MS),
            job_at("c", 14 * MS, wcet=4 * MS),
        ]
        graphs = build_dependency_graphs(jobs)
        weights = {job.task.name: graphs.penalty_weight(job) for job in graphs.jobs}
        assert weights == {"a": 1, "b": 2, "c": 1}

    def test_back_to_back_jobs_do_not_conflict(self):
        jobs = [job_at("a", 10 * MS, wcet=2 * MS), job_at("b", 12 * MS, wcet=2 * MS)]
        graphs = build_dependency_graphs(jobs)
        assert sum(len(neighbours) for neighbours in graphs.adjacency) // 2 == 0


class TestDecomposition:
    def test_no_conflicts_keeps_everything(self):
        jobs = [job_at("a", 0), job_at("b", 10 * MS), job_at("c", 20 * MS)]
        kept, sacrificed = decompose_graphs(build_dependency_graphs(jobs))
        assert len(kept) == 3
        assert sacrificed == []

    def test_chain_of_three_sacrifices_middle_job(self):
        jobs = [
            job_at("a", 10 * MS, wcet=4 * MS),
            job_at("b", 12 * MS, wcet=4 * MS),
            job_at("c", 14 * MS, wcet=4 * MS),
        ]
        kept, sacrificed = decompose_graphs(build_dependency_graphs(jobs))
        assert {job.task.name for job in kept} == {"a", "c"}
        assert [job.task.name for job in sacrificed] == ["b"]

    def test_tie_broken_towards_lowest_priority(self):
        jobs = [
            job_at("hi", 10 * MS, wcet=4 * MS, priority=5),
            job_at("lo", 12 * MS, wcet=4 * MS, priority=1),
        ]
        kept, sacrificed = decompose_graphs(build_dependency_graphs(jobs))
        assert [job.task.name for job in sacrificed] == ["lo"]
        assert [job.task.name for job in kept] == ["hi"]

    def test_kept_jobs_never_overlap_at_ideal_times(self):
        jobs = [job_at(f"t{i}", (10 + 3 * i) * MS, wcet=5 * MS) for i in range(6)]
        kept, _ = decompose_graphs(build_dependency_graphs(jobs))
        ordered = sorted(kept, key=lambda j: j.ideal_start)
        for first, second in zip(ordered, ordered[1:]):
            assert first.ideal_start + first.wcet <= second.ideal_start

    def test_kept_plus_sacrificed_is_input(self):
        jobs = [job_at(f"t{i}", (10 + 2 * i) * MS, wcet=3 * MS) for i in range(8)]
        kept, sacrificed = decompose_graphs(build_dependency_graphs(jobs))
        assert len(kept) + len(sacrificed) == len(jobs)
        assert {j.key for j in kept} | {j.key for j in sacrificed} == {j.key for j in jobs}
