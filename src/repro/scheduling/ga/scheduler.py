"""The GA-based I/O scheduler: wraps the NSGA-II search behind the Scheduler API.

The scheduler optimises ``(Psi, Upsilon)`` for one per-device partition and
returns, besides a preferred schedule, the full Pareto front found during the
search.  As in the paper's evaluation, the best-Psi and best-Upsilon points of
the front are exposed (``info["best_psi_schedule"]`` / ``info["best_upsilon_schedule"]``)
so that Figures 6 and 7 can report the best value per objective.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.memo import get_memo
from repro.core.schedule import Schedule
from repro.core.task import IOJob
from repro.scheduling.base import Scheduler, ScheduleResult
from repro.scheduling.ga.encoding import GAProblem
from repro.scheduling.ga.nsga2 import NSGA2
from repro.scheduling.ga.reconfiguration import evaluate_batch as evaluate_genes_batch
from repro.scheduling.heuristic import HeuristicScheduler
from repro.scheduling.registry import register_scheduler

#: Population size and iteration count used by the paper's evaluation.
PAPER_POPULATION_SIZE = 300
PAPER_GENERATIONS = 500


@dataclass(frozen=True)
class GAConfig:
    """Configuration of the GA search.

    The defaults are deliberately smaller than the paper's (population 300,
    500 generations) so that unit tests and benchmarks complete quickly; the
    experiment harness can request the full budget via
    ``GAConfig.paper_scale()``.
    """

    population_size: int = 60
    generations: int = 40
    crossover_probability: float = 0.9
    gene_mutation_probability: Optional[float] = None
    #: Seed the initial population with the heuristic (Algorithm 1) solution
    #: and the all-ideal-start vector.  Keeps the GA's schedulability at least
    #: as good as the static method, as observed in Figure 5.
    seed_with_heuristic: bool = True
    seed: Optional[int] = None

    @classmethod
    def paper_scale(cls, **overrides) -> "GAConfig":
        """The paper's search budget (population 300, 500 generations)."""
        params = dict(
            population_size=PAPER_POPULATION_SIZE,
            generations=PAPER_GENERATIONS,
        )
        params.update(overrides)
        return cls(**params)


@register_scheduler("ga")
class GAScheduler(Scheduler):
    """Multi-objective GA-based I/O scheduling (Section III-B)."""

    name = "ga"

    def __init__(self, config: Optional[GAConfig] = None, **overrides):
        """``overrides`` are :class:`GAConfig` fields applied on top of ``config``.

        They exist so the scheduler registry (and spec strings such as
        ``"ga:generations=50"``) can configure the search without constructing
        a ``GAConfig`` first; an unknown field raises ``TypeError`` listing the
        valid ones.
        """
        base = config or GAConfig()
        if overrides:
            valid = {f.name for f in dataclasses.fields(GAConfig)}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise TypeError(
                    f"unknown GAConfig override(s) {unknown}; "
                    f"valid fields: {', '.join(sorted(valid))}"
                )
            base = dataclasses.replace(base, **overrides)
        self.config = base

    def schedule_jobs(self, jobs: Sequence[IOJob], horizon: int) -> ScheduleResult:
        jobs = list(jobs)
        if not jobs:
            return ScheduleResult.from_schedule(Schedule(), jobs)

        # Compiling the partition (gene bounds, release/deadline arrays) is a
        # pure function of (jobs, horizon) and the problem is read-only during
        # the search, so warm workers share one pre-compiled instance per
        # partition content.
        problem = get_memo("ga-problem", 64).get_or_create(
            (horizon, tuple(jobs)), lambda: self._build_problem(jobs, horizon)
        )
        rng = np.random.default_rng(self.config.seed)
        seeds = self._build_seeds(problem, jobs, horizon)

        # The batch evaluator scores a whole (pop, n_genes) matrix per call.
        # Archive payloads are the repaired start-time rows — Schedule objects
        # are only materialised for the handful of entries reported below.
        # Each row is a copy: an archived view would keep its whole batch's
        # start matrix alive for the rest of the run.
        def evaluate_batch(genes_matrix: np.ndarray):
            objectives, starts, feasible = evaluate_genes_batch(problem, genes_matrix)
            payloads = [
                row.copy() if ok else None for row, ok in zip(starts, feasible.tolist())
            ]
            return objectives, payloads

        search = NSGA2(
            problem,
            evaluate_batch=evaluate_batch,
            population_size=self.config.population_size,
            generations=self.config.generations,
            crossover_probability=self.config.crossover_probability,
            gene_mutation_probability=self.config.gene_mutation_probability,
            rng=rng,
            seeds=seeds,
        )
        outcome = search.run()
        archive = outcome.archive

        info = {
            "n_input_jobs": len(jobs),
            "generations_run": outcome.generations_run,
            "evaluations": outcome.evaluations,
            "pareto_size": len(archive),
            "pareto_front": [entry.objectives for entry in archive],
        }

        if len(archive) == 0:
            return ScheduleResult.infeasible(n_jobs=len(jobs), **info)

        best_psi = archive.best_by(0)
        best_upsilon = archive.best_by(1)
        info["best_psi"] = best_psi.objectives[0]
        info["best_psi_upsilon"] = best_psi.objectives[1]
        info["best_upsilon"] = best_upsilon.objectives[1]
        info["best_upsilon_psi"] = best_upsilon.objectives[0]
        info["best_psi_schedule"] = self._schedule_from_starts(problem, best_psi.payload)
        info["best_upsilon_schedule"] = self._schedule_from_starts(
            problem, best_upsilon.payload
        )

        # The preferred single schedule balances both objectives: the archive
        # entry with the largest objective sum (a simple knee-point proxy).
        preferred = max(archive.entries, key=lambda entry: sum(entry.objectives))
        return ScheduleResult.from_schedule(
            self._schedule_from_starts(problem, preferred.payload), jobs, **info
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _build_problem(jobs: List[IOJob], horizon: int) -> GAProblem:
        problem = GAProblem(jobs=jobs, horizon=horizon)
        problem.compiled()  # pre-warm so every search on this memo entry shares it
        return problem

    @staticmethod
    def _schedule_from_starts(problem: GAProblem, starts: np.ndarray) -> Schedule:
        """Materialise a Schedule from a repaired start-time row.

        Entries are inserted in execution order (repaired starts never
        overlap, so ascending start *is* the execution order) — the same
        insertion order the scalar repair produced, keeping the metrics'
        float accumulation identical.
        """
        order = np.argsort(np.asarray(starts), kind="stable")
        schedule = Schedule()
        for index in order:
            schedule.set_start(problem.jobs[int(index)], int(starts[int(index)]))
        return schedule

    def _build_seeds(
        self, problem: GAProblem, jobs: Sequence[IOJob], horizon: int
    ) -> List[np.ndarray]:
        seeds: List[np.ndarray] = [problem.ideal_genes()]
        if not self.config.seed_with_heuristic:
            return seeds
        heuristic = HeuristicScheduler()
        # Seed from the heuristic result for the caller's job order (not the
        # problem's canonical order): the start-time mapping is identical
        # either way — the heuristic canonicalises internally — and using the
        # caller's order shares the per-worker memo entry with a plain
        # "static" run of the same partition.
        result = heuristic.schedule_jobs(jobs, horizon)
        if result.schedulable and result.schedule is not None:
            starts_by_key = {
                entry.job.key: entry.start for entry in result.schedule.entries
            }
            seeds.append(problem.genes_from_schedule_mapping(starts_by_key))
        return seeds
