"""Figure sweeps as scheduling-service requests.

The engine decomposes every sweep into independent **evaluation cells** — one
:class:`EvalJob` per ``(utilisation, system index, method)`` — and issues each
cell as a :class:`~repro.service.ScheduleRequest` (:func:`cell_request`)
through one :class:`~repro.service.SchedulingService` the engine owns.  The
service runs the cells serially in-process (``n_workers=1``) or on its worker
pool.  A cell's request is a pure function of the configuration and the cell
coordinates, so results are bit-identical at any worker count.

With an artifact directory, the service's content-addressed cache —
``<artifact_dir>/cache.db`` (see :mod:`repro.experiments.artifacts`) — keeps
every computed cell.  Cells are keyed by request content, not by
configuration: a rerun, an enlarged sweep, a configuration differing only in
settings a cell does not read, a method alias, or a direct service request
for the same system all reuse one entry.

Scheduling methods are resolved through the scheduler registry
(:mod:`repro.scheduling.registry`); registering a new method makes it
available to every sweep without touching this module.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.memo import get_memo
from repro.core.serialization import PayloadVersionError, content_hash
from repro.core.task import TaskSet
from repro.experiments.artifacts import (
    CACHE_FILENAME,
    ArtifactStore,
    accuracy_sweep_from_dict,
    accuracy_sweep_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import AccuracySweepResult, SweepResult
from repro.experiments.stats import mean
from repro.scenario import Scenario, materialize, pinned_scenario
from repro.service import (
    ScheduleRequest,
    ScheduleResponse,
    SchedulerSpec,
    SchedulingService,
    execute_request,
)
from repro.store import SqliteBackend
from repro.taskgen import SystemGenerator

#: Canonical method ordering used in result tables.
SCHEDULABILITY_METHODS = ("fps-offline", "fps-online", "gpiocp", "static", "ga")
ACCURACY_METHODS = ("fps", "gpiocp", "static", "ga")

#: Offset decorrelating the GA's derived RNG stream from the generator's.
_GA_SEED_OFFSET = 1_000_003


# -- evaluation cells ----------------------------------------------------------


@dataclass(frozen=True)
class EvalJob:
    """One picklable unit of sweep work: evaluate ``method`` on one system.

    ``method`` is a registered scheduler name or a full spec string such as
    ``"ga:generations=10"`` (see :class:`repro.service.SchedulerSpec`).
    """

    utilisation: float
    system_index: int
    method: str


@dataclass(frozen=True)
class CellResult:
    """Outcome of one evaluation cell.

    ``psi`` / ``upsilon`` are the metrics of the method's produced schedule;
    for the GA, ``best_psi`` / ``best_upsilon`` carry the best-per-objective
    Pareto points that Figures 6 and 7 report (for single-schedule methods
    they simply equal ``psi`` / ``upsilon``).
    """

    schedulable: bool
    psi: float
    upsilon: float
    best_psi: float
    best_upsilon: float

    @classmethod
    def from_response(cls, response: ScheduleResponse) -> "CellResult":
        return cls(
            schedulable=response.schedulable,
            psi=response.psi,
            upsilon=response.upsilon,
            best_psi=response.best_psi,
            best_upsilon=response.best_upsilon,
        )


def cell_seed(config: ExperimentConfig, utilisation: float, system_index: int) -> int:
    """The deterministic RNG seed of one ``(utilisation, system)`` pair."""
    return config.seed + int(round(utilisation * 100)) * 10_000 + system_index


def cell_scenario(config: ExperimentConfig, utilisation: float) -> Scenario:
    """The configured scenario with the cell's utilisation pinned.

    Only valid for scenario-backed configurations; the pinned-utilisation copy
    is what both system generation and the cell's schedule request use, so the
    two always agree on which synthetic system the cell evaluates.
    """
    assert config.scenario is not None
    return pinned_scenario(config.scenario, utilisation)


def generate_system(
    config: ExperimentConfig, utilisation: float, system_index: int
) -> TaskSet:
    """Regenerate the synthetic system of one cell (pure in its arguments).

    Scenario-backed configurations draw from the scenario's workload (with the
    sweep utilisation pinned); legacy configurations keep the historical
    ``seed``/``generator`` derivation, so existing figures stay unchanged.
    """
    if config.scenario is not None:
        return materialize(
            config.scenario, system_index, utilisation=utilisation
        ).task_set
    seed = cell_seed(config, utilisation, system_index)
    # Same per-worker reuse as the scenario path (which memoises inside
    # materialize): each method of a sweep re-draws the same cell system.
    return get_memo("generate-system", 256).get_or_create(
        (config.generator, seed, utilisation),
        lambda: SystemGenerator(config.generator, rng=seed).generate(utilisation),
    )


def cell_spec(config: ExperimentConfig, job: EvalJob) -> SchedulerSpec:
    """The fully-pinned scheduler spec one cell executes.

    ``job.method`` is parsed as a spec string and folds into the scheduler
    registry's canonical name (``fps`` is ``fps-offline``); for the GA, the
    configured ``GAConfig`` supplies defaults under any options the spec pins,
    and the RNG seed is derived from the cell seed whenever neither pins one —
    so GA cells are as deterministic (and as worker-count-independent) as
    every other method.
    """
    spec = SchedulerSpec.parse(job.method).canonical()
    if spec.name != "ga":
        return spec
    options = asdict(config.ga)
    options.update(spec.options_dict())
    if options.get("seed") is None:
        options["seed"] = (
            cell_seed(config, job.utilisation, job.system_index) + _GA_SEED_OFFSET
        )
    return SchedulerSpec("ga", options)


def cell_request(config: ExperimentConfig, job: EvalJob) -> ScheduleRequest:
    """The schedule request one cell issues; a pure function of ``(config, job)``.

    A sweep cell and a direct service request with the same content are the
    same computation and share one cache entry.  With a scenario-backed
    configuration the request itself is scenario-backed — the worker
    materialises the system from the declarative description, exactly as a
    direct ``--scenario`` service request would.
    """
    spec = cell_spec(config, job)
    if config.scenario is not None:
        return ScheduleRequest(
            scenario=cell_scenario(config, job.utilisation),
            system_index=job.system_index,
            spec=spec,
        )
    task_set = generate_system(config, job.utilisation, job.system_index)
    return ScheduleRequest(task_set=task_set, spec=spec)


def evaluate_cell(config: ExperimentConfig, job: EvalJob) -> CellResult:
    """Evaluate one cell in this process, without any cache."""
    return CellResult.from_response(execute_request(cell_request(config, job)))


# -- the engine ----------------------------------------------------------------


class ExperimentEngine:
    """Executes sweeps as service requests with optional persistence.

    Parameters default to what the configuration carries (``config.n_workers``
    and ``config.artifact_dir``); both can be overridden per engine.  With an
    artifact directory, computed cells persist in its ``cache.db`` and
    completed sweeps as JSON under the configuration's fingerprint directory;
    without one, nothing is stored.  Use the engine as a context manager (or
    call :meth:`close`) to release the worker pool and the cell cache.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        n_workers: Optional[int] = None,
        artifact_dir: Optional[str] = None,
    ):
        self.config = config or ExperimentConfig()
        self.n_workers = n_workers if n_workers is not None else self.config.n_workers
        directory = artifact_dir if artifact_dir is not None else self.config.artifact_dir
        if directory is None:
            self.store: Optional[ArtifactStore] = None
            self.service = SchedulingService(n_workers=self.n_workers, cache=None)
        else:
            self.store = ArtifactStore(directory, self.config)
            # A live backend rather than a spec string, so any path works.
            self.service = SchedulingService(
                n_workers=self.n_workers,
                cache_backend=SqliteBackend(Path(directory) / CACHE_FILENAME),
            )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.service.close()
        if self.service.cache is not None:
            self.service.cache.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cell execution ----------------------------------------------------------

    def run_cells(self, jobs: Sequence[EvalJob]) -> Dict[EvalJob, CellResult]:
        """Evaluate ``jobs`` through the service, one slice at a time.

        The service stores every cell before it answers it, so an
        interrupted call loses only the cells in flight, and once a window
        of a slice is answered the cache drops its in-process copies of the
        cells its backend holds.  Serially a slice is one cell.  On a pool
        every slice ends in a barrier that waits for the slowest worker, so
        there are at most four slices, each of at least four cells per
        worker.  Responses are reduced to :class:`CellResult` as their slice
        returns, so a sweep never holds more than one slice of full
        responses.
        """
        jobs = list(jobs)
        if self.n_workers == 1:
            size = 1
        else:
            size = max(4 * self.n_workers, -(-len(jobs) // 4))
        results: Dict[EvalJob, CellResult] = {}
        for start in range(0, len(jobs), size):
            batch = jobs[start : start + size]
            responses = self.service.submit_batch(
                [cell_request(self.config, job) for job in batch]
            )
            for job, response in zip(batch, responses):
                results[job] = CellResult.from_response(response)
        return results

    @property
    def cells_computed(self) -> int:
        """Cells actually evaluated (cache misses) over this engine's lifetime."""
        return self.service.computed

    def metrics(self) -> Dict[str, Any]:
        """A merged metrics snapshot of this engine's service (see :mod:`repro.obs`)."""
        return self.service.metrics()

    # -- the sweeps --------------------------------------------------------------

    def generate_system(self, utilisation: float, system_index: int) -> TaskSet:
        return generate_system(self.config, utilisation, system_index)

    def schedulability_methods(self) -> List[str]:
        return [m for m in SCHEDULABILITY_METHODS if self.config.include_ga or m != "ga"]

    def accuracy_methods(self) -> List[str]:
        return [m for m in ACCURACY_METHODS if self.config.include_ga or m != "ga"]

    def schedulability_sweep(
        self,
        utilisations: Optional[Sequence[float]] = None,
        *,
        methods: Optional[Sequence[str]] = None,
    ) -> SweepResult:
        """Fraction of schedulable systems per method and utilisation (Figure 5).

        ``methods`` restricts (or re-parameterises) the evaluated schedulers;
        entries are registered names or spec strings such as
        ``"ga:generations=10"``.  The default is every method of the paper's
        Figure 5, honouring ``config.include_ga``.
        """
        config = self.config
        utilisations = list(utilisations or config.schedulability_utilisations)
        methods = list(methods) if methods is not None else self.schedulability_methods()

        artifact = self._sweep_artifact_name("schedulability", utilisations, methods)
        cached = self._load_sweep_artifact(artifact, sweep_result_from_dict)
        if cached is not None:
            return cached

        jobs = [
            EvalJob(utilisation, system_index, method)
            for utilisation in utilisations
            for system_index in range(config.n_systems)
            for method in methods
        ]
        cells = self.run_cells(jobs)

        series: Dict[str, List[float]] = {method: [] for method in methods}
        for utilisation in utilisations:
            for method in methods:
                count = sum(
                    cells[EvalJob(utilisation, system_index, method)].schedulable
                    for system_index in range(config.n_systems)
                )
                series[method].append(count / config.n_systems)

        result = SweepResult(
            name="schedulability", utilisations=utilisations, series=series
        )
        if self.store is not None:
            self.store.save_result(artifact, sweep_result_to_dict(result))
        return result

    def accuracy_sweep(
        self,
        utilisations: Optional[Sequence[float]] = None,
        *,
        methods: Optional[Sequence[str]] = None,
    ) -> AccuracySweepResult:
        """Mean Psi and Upsilon per method over schedulable systems (Figures 6-7).

        Following the paper, the sweep evaluates the offline methods on systems
        that the proposed scheduling can handle (the static heuristic is used
        as the admission filter, whether or not ``"static"`` is among the
        reported ``methods``); the GA contributes the best-Psi point of its
        Pareto front to Figure 6 and the best-Upsilon point to Figure 7.
        """
        config = self.config
        utilisations = list(utilisations or config.accuracy_utilisations)
        methods = list(methods) if methods is not None else self.accuracy_methods()

        artifact = self._sweep_artifact_name("accuracy", utilisations, methods)
        cached = self._load_sweep_artifact(artifact, accuracy_sweep_from_dict)
        if cached is not None:
            return cached

        psi_series: Dict[str, List[float]] = {method: [] for method in methods}
        upsilon_series: Dict[str, List[float]] = {method: [] for method in methods}
        systems_evaluated: Dict[float, int] = {}

        # Plain "static" doubles as the admission filter, so the cells of every
        # method that folds into it come from _admit_systems rather than a
        # second evaluation; the GA (under any spec parameters) reports its
        # best-per-objective Pareto points.
        specs = {method: SchedulerSpec.parse(method).canonical() for method in methods}
        other_methods = {method for method in methods if specs[method] != SchedulerSpec("static")}
        ga_methods = {method for method in methods if specs[method].name == "ga"}
        for utilisation in utilisations:
            admitted, static_cells = self._admit_systems(utilisation)
            jobs = [
                EvalJob(utilisation, system_index, method)
                for system_index in admitted
                for method in methods
                if method in other_methods
            ]
            cells = self.run_cells(jobs)

            per_method_psi: Dict[str, List[float]] = {method: [] for method in methods}
            per_method_upsilon: Dict[str, List[float]] = {method: [] for method in methods}
            for system_index in admitted:
                for method in methods:
                    cell = (
                        cells[EvalJob(utilisation, system_index, method)]
                        if method in other_methods
                        else static_cells[system_index]
                    )
                    best = method in ga_methods
                    per_method_psi[method].append(cell.best_psi if best else cell.psi)
                    per_method_upsilon[method].append(cell.best_upsilon if best else cell.upsilon)

            systems_evaluated[utilisation] = len(admitted)
            for method in methods:
                psi_series[method].append(mean(per_method_psi[method]))
                upsilon_series[method].append(mean(per_method_upsilon[method]))

        result = AccuracySweepResult(
            psi=SweepResult(name="psi", utilisations=utilisations, series=psi_series),
            upsilon=SweepResult(
                name="upsilon", utilisations=utilisations, series=upsilon_series
            ),
            systems_evaluated=systems_evaluated,
        )
        if self.store is not None:
            self.store.save_result(artifact, accuracy_sweep_to_dict(result))
        return result

    def _admit_systems(
        self, utilisation: float
    ) -> Tuple[List[int], Dict[int, CellResult]]:
        """The first ``n_systems`` static-schedulable system indices at ``utilisation``.

        Mirrors the historical sequential admission loop exactly (first-n
        schedulable indices within ``10 * n_systems`` attempts) while batching
        the static evaluations through the worker pool.  Emits a warning when
        the attempt budget runs out before enough systems are found.
        """
        config = self.config
        n_systems = config.n_systems
        max_attempts = n_systems * 10
        batch_size = max(n_systems, 2 * self.n_workers)

        admitted: List[int] = []
        static_cells: Dict[int, CellResult] = {}
        next_index = 0
        while len(admitted) < n_systems and next_index < max_attempts:
            upper = min(next_index + batch_size, max_attempts)
            jobs = [
                EvalJob(utilisation, system_index, "static")
                for system_index in range(next_index, upper)
            ]
            cells = self.run_cells(jobs)
            for job in jobs:
                cell = cells[job]
                static_cells[job.system_index] = cell
                if cell.schedulable and len(admitted) < n_systems:
                    admitted.append(job.system_index)
            next_index = upper

        if len(admitted) < n_systems:
            warnings.warn(
                f"accuracy sweep at U={utilisation}: only {len(admitted)} of the "
                f"requested {n_systems} schedulable systems were found within "
                f"{max_attempts} attempts; reported means cover the smaller sample "
                f"(see AccuracySweepResult.systems_evaluated)",
                UserWarning,
                stacklevel=3,
            )
        return admitted, static_cells

    # -- artifact helpers --------------------------------------------------------

    def _sweep_artifact_name(
        self, prefix: str, utilisations: Sequence[float], methods: Sequence[str]
    ) -> str:
        signature = content_hash(
            {
                "utilisations": list(utilisations),
                "methods": list(methods),
                "n_systems": self.config.n_systems,
            },
            length=10,
        )
        return f"{prefix}-{signature}"

    def _load_sweep_artifact(
        self, name: str, from_dict: Callable[[Dict[str, Any]], Any]
    ) -> Any:
        if self.store is None:
            return None
        payload = self.store.load_result(name)
        if payload is None:
            return None
        try:
            return from_dict(payload)
        except PayloadVersionError:
            raise  # newer artifact: never recompute-and-overwrite it
        except (ValueError, KeyError, TypeError):
            return None  # corrupt/legacy artifact: recompute
