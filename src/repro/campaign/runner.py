"""``CampaignRunner`` — execute a campaign grid with checkpointed resume.

The runner expands a :class:`~repro.campaign.spec.CampaignSpec` into
:class:`~repro.service.ScheduleRequest` cells and streams them through one
shared :class:`~repro.service.SchedulingService`
(:meth:`~repro.service.core.ContentAddressedService.submit_stream`) —
reusing its worker pool, dedup and content-addressed schedule cache — while
checkpointing every answered cell to a ``campaign.jsonl`` journal under a
directory keyed by the campaign's content key (one flushed line per cell; a
torn trailing line left by an interrupt is truncated away on resume).  An
interrupted campaign re-launched with the same spec therefore resumes with
**zero** recomputed cells, and because cells are journalled in the spec's
canonical grid order, the journal — and any report built from it — is
byte-identical at every worker count.

Determinism chain: a cell's scenario + system index materialise a
deterministic system (:func:`repro.scenario.materialize`); the service's
``execute_request`` is pure in the request (stochastic methods get
content-derived seeds); replications of stochastic methods decorrelate
through a seed derived from the cell's own coordinates.  Nothing anywhere
depends on wall clock, process identity or worker count.

**Sharding** stretches the same guarantees across processes and machines:
``CampaignRunner(..., shard=(i, n))`` claims the cells whose *content keys*
fall into the ``i``-th of ``n`` contiguous keyspace ranges
(:func:`shard_of_key` — disjoint and complete by construction, and stable
under grid growth within a range) and journals them to its own
``campaign.shard-i-of-n.jsonl``.  Each run-time cell rides with its schedule
cell's key (:func:`cell_shard`), so every shard worker simulates against
schedules it computed itself.  Once every shard journal is complete,
:func:`merge_shard_journals` (invoked automatically by the shard that
finishes last, or explicitly via ``python -m repro.campaign merge``)
reassembles the canonical ``campaign.jsonl`` — byte-identical to a
single-process run, so resume and reports behave exactly as if the campaign
had never been split.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from dataclasses import dataclass
from itertools import tee
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.analysis import max_response_time
from repro.campaign.report import CampaignReport
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.timings import TimingsWriter, timing_entry
from repro.core.serialization import atomic_write_json, canonical_json, content_hash
from repro.runtime import SimulationRequest, SimulationResponse, SimulationService
from repro.scenario import Scenario, pinned_scenario
from repro.service import ScheduleRequest, ScheduleResponse, SchedulerSpec, SchedulingService
from repro.service.core import check_exclusive
from repro.service.service import DERIVED_SEED_METHODS

CAMPAIGN_JOURNAL_FILENAME = "campaign.jsonl"
CAMPAIGN_SPEC_FILENAME = "campaign.json"

#: Per-shard journal filenames: ``campaign.shard-3-of-8.jsonl``.
SHARD_JOURNAL_RE = re.compile(r"^campaign\.shard-(\d+)-of-(\d+)\.jsonl$")

#: Journal/lookup key of one cell; mirrors :meth:`CampaignCell.key` (five
#: coordinates, six on run-time cells).
CellKey = Tuple[Any, ...]

#: Per-cell metric values, keyed by metric name (bools stored as bools).
CellValues = Dict[str, Union[bool, float]]


# -- cell -> request translation (pure functions) -------------------------------


def cell_scenario(spec: CampaignSpec, cell: CampaignCell) -> Scenario:
    """The concrete scenario of one cell (utilisation pinned when swept).

    Pinned copies come from the per-process ``cell-scenario`` memo the
    experiment engine uses too, so all cells of one grid point share one
    copy and hash it once.
    """
    scenario = spec.scenario_by_name(cell.scenario)
    if cell.utilisation is not None:
        scenario = pinned_scenario(scenario, cell.utilisation)
    return scenario


def replication_seed(scenario: Scenario, cell: CampaignCell) -> int:
    """Deterministic RNG seed decorrelating one stochastic replication.

    Derived from the cell's full coordinates (scenario content, method,
    utilisation, system index, replication), so replications of the same cell
    draw independent streams while the whole grid stays a pure function of
    the spec.
    """
    return int(
        content_hash(
            {
                "purpose": "campaign-replication-seed",
                "scenario": scenario.content_key(),
                "method": cell.method,
                "system_index": cell.system_index,
                "replication": cell.replication,
            }
        ),
        16,
    )


def cell_request(spec: CampaignSpec, cell: CampaignCell) -> ScheduleRequest:
    """Build the :class:`ScheduleRequest` one cell submits to the service.

    Replication 0 issues the plain request — content-identical to a direct
    service call for the same scenario/method, so campaign cells and ad-hoc
    batches share schedule-cache entries.  Later replications pin a derived
    seed on stochastic methods (:data:`DERIVED_SEED_METHODS`) that do not pin
    one themselves; deterministic methods replicate to content-identical
    requests, which the service dedups for free (their variance is genuinely
    zero).
    """
    scenario = cell_scenario(spec, cell)
    method = SchedulerSpec.parse(cell.method)
    if (
        cell.replication > 0
        and method.canonical().name in DERIVED_SEED_METHODS
        and method.options_dict().get("seed") is None
    ):
        method = method.with_options(seed=replication_seed(scenario, cell))
    return ScheduleRequest(
        scenario=scenario,
        system_index=cell.system_index,
        spec=method,
        request_id=(
            f"{spec.name}/{cell.scenario}/{cell.method}"
            f"/u={cell.utilisation}/i={cell.system_index}/r={cell.replication}"
        ),
    )


def runtime_cell_request(spec: CampaignSpec, cell: CampaignCell) -> SimulationRequest:
    """Build the :class:`SimulationRequest` one run-time cell submits.

    The embedded schedule question (scenario, system index, method — with the
    same replication-seed pinning as :func:`cell_request`) is content-identical
    to the corresponding schedule cell's request, so the simulation reuses the
    schedule the campaign already computed instead of scheduling again.
    """
    if spec.runtime is None:
        raise ValueError("campaign has no runtime section")
    schedule_request = cell_request(spec, cell.schedule_cell())
    return SimulationRequest(
        scenario=schedule_request.scenario,
        system_index=cell.system_index,
        method=schedule_request.spec,
        execution_model=cell.execution_model,
        max_events=spec.runtime.max_events,
        request_id=(
            f"{spec.name}/{cell.scenario}/{cell.method}/x={cell.execution_model}"
            f"/u={cell.utilisation}/i={cell.system_index}/r={cell.replication}"
        ),
    )


def runtime_cell_values(
    spec: CampaignSpec, response: SimulationResponse
) -> CellValues:
    """Extract the runtime section's selected metrics from one simulation."""
    assert spec.runtime is not None
    values: CellValues = {}
    for metric in spec.runtime.metrics:
        value = getattr(response, metric)
        values[metric] = value if isinstance(value, (bool, int)) else float(value)
    return values


def cell_values(
    spec: CampaignSpec,
    request: ScheduleRequest,
    response: ScheduleResponse,
    *,
    analysis_cache: Optional[Dict[Tuple[str, int], float]] = None,
) -> CellValues:
    """Extract the spec's selected metrics from one finished cell.

    ``response_time`` is a workload-difficulty diagnostic — the analytical
    FPS worst case of the materialised system, identical for every method
    and replication of the same (scenario, utilisation, system index) — so
    callers evaluating a grid pass an ``analysis_cache`` keyed by
    ``(scenario content key, system index)`` to analyse each system once
    instead of once per cell.
    """
    values: CellValues = {}
    for metric in spec.metrics:
        if metric == "schedulable":
            values[metric] = bool(response.schedulable)
        elif metric == "response_time":
            cache_key = (request.scenario.content_key(), request.system_index)
            if analysis_cache is not None and cache_key in analysis_cache:
                values[metric] = analysis_cache[cache_key]
            else:
                values[metric] = max_response_time(request.effective_task_set())
                if analysis_cache is not None:
                    analysis_cache[cache_key] = values[metric]
        else:  # psi / upsilon / best_psi / best_upsilon
            values[metric] = float(getattr(response, metric))
    return values


# -- sharding (pure functions) --------------------------------------------------


def shard_of_key(content_key: str, n_shards: int) -> int:
    """The 0-based shard owning ``content_key``, out of ``n_shards``.

    The 64-bit keyspace is split into ``n_shards`` contiguous ranges (the
    classic range partition), so the shards are disjoint and complete for any
    key and any ``n_shards`` *by construction*, with no coordination and no
    shared state.  Content keys are uniformly distributed (they are hashes),
    so the ranges are balanced in expectation.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    prefix = content_key[:16]
    if len(prefix) < 16 or any(c not in "0123456789abcdef" for c in prefix):
        raise ValueError(f"invalid content key {content_key!r}")
    return (int(prefix, 16) * n_shards) >> 64


def cell_shard(spec: CampaignSpec, cell: CampaignCell, n_shards: int) -> int:
    """The 0-based shard owning one cell, by its schedule request's content key.

    A run-time cell goes by its *schedule* cell, so a shard worker always
    simulates against schedules it computed itself (its schedule cache is
    warm) — and every execution model of one schedule cell stays on one
    worker.
    """
    return shard_of_key(cell_request(spec, cell.schedule_cell()).content_key(), n_shards)


#: The shard of a run-time cell: :func:`cell_shard`, under its older name.
runtime_cell_shard = cell_shard


def shard_journal_filename(shard_index: int, n_shards: int) -> str:
    """Journal filename of shard ``shard_index`` (1-based) of ``n_shards``."""
    return f"campaign.shard-{shard_index}-of-{n_shards}.jsonl"


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``I/N`` shard designator into ``(index, total)`` (1-based)."""
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise ValueError(f"shard must look like I/N (e.g. 2/4), got {text!r}")
    index, total = int(match.group(1)), int(match.group(2))
    if total < 1 or not 1 <= index <= total:
        raise ValueError(f"shard index must satisfy 1 <= I <= N, got {text!r}")
    return index, total


# -- journal entry construction (shared by the runner and the merge) ------------


def _entry_dict(cell: CampaignCell, values: CellValues) -> Dict:
    # Run-time cells share the journal; their "x" (execution model) field
    # tells the two record shapes apart on load.
    return {**cell.coordinates(), "v": values}


# -- the runner ----------------------------------------------------------------


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` call."""

    spec: CampaignSpec
    #: Every completed cell (resumed + freshly evaluated), by cell key.
    records: Dict[CellKey, CellValues]
    #: Every completed run-time cell, by cell key (empty without a
    #: ``runtime`` section).  ``evaluated``/``resumed`` count these too.
    runtime_records: Dict[CellKey, CellValues]
    #: Cells evaluated by *this* call (not served from the journal).
    evaluated: int
    #: Cells served from the journal before this call computed anything.
    resumed: int
    #: Cells this run was responsible for — the full grid, or (sharded) the
    #: shard's share of it.
    expected_cells: int
    expected_runtime_cells: int
    #: Path of the canonical merged journal, when a sharded run found every
    #: shard complete and (re)assembled ``campaign.jsonl``.
    merged_journal: Optional[Path] = None

    @property
    def complete(self) -> bool:
        return (len(self.records), len(self.runtime_records)) == (
            self.expected_cells,
            self.expected_runtime_cells,
        )

    def report(self) -> CampaignReport:
        return CampaignReport.from_records(
            self.spec, self.records, runtime_records=self.runtime_records
        )


class CampaignRunner:
    """Runs one campaign, checkpointing progress for interruption-free resume.

    Parameters
    ----------
    spec:
        The campaign to run.
    artifact_dir:
        Root directory for campaign artifacts.  The runner owns
        ``<artifact_dir>/<spec.content_key()>/`` — the spec payload
        (``campaign.json``), the cell journal (``campaign.jsonl``) — so
        different campaigns can share one root without mixing.  ``None``
        keeps all progress in memory (no resume across processes).
    n_workers:
        Worker processes of the shared scheduling service (1 = in-process);
        run-time cells run on the same pool.
    cache_dir:
        Optional persistent schedule-cache directory for the service; safe to
        share between concurrent campaign processes (entries are written
        atomically).
    cache_backend:
        Storage-backend spec string (see :mod:`repro.store`) for the
        persistent caches instead of ``cache_dir`` — e.g.
        ``sqlite:path=cache.db`` keeps the schedule *and* simulation caches
        of the campaign in one SQLite file, safe for N concurrent shard
        workers.  Conflicts with ``cache_dir``.
    shard:
        ``(index, total)`` with ``1 <= index <= total``: run only the cells
        whose content keys fall into this shard's keyspace range (see
        :func:`shard_of_key`), journalling to
        ``campaign.shard-index-of-total.jsonl``.  N workers given shards
        ``(1, N) .. (N, N)`` over the same ``artifact_dir`` cover the grid
        disjointly and completely; when the last one finishes, the shard
        journals are merged into the canonical ``campaign.jsonl``
        automatically.  Requires ``artifact_dir``.
    service:
        An existing service to schedule through (its worker pool and cache
        are reused; ``n_workers``/``cache_dir`` are then ignored).  The
        caller keeps ownership and must close it.  Anything with the
        service's ``submit_stream``/``n_workers``/``close`` surface works —
        in particular :class:`~repro.server.RemoteSchedulingService`, which
        rides a running serving daemon.
    simulation:
        Like ``service``, for the run-time side: an existing simulation
        service (or :class:`~repro.server.RemoteSimulationService`) to
        simulate through.  The caller keeps ownership and must close it.
        Without one, a campaign with a runtime section builds its own
        :class:`~repro.runtime.SimulationService` over ``service``.
    timings:
        Append one line per freshly evaluated cell (coordinates, cache
        status, ``elapsed_ms``) to a ``campaign.metrics.jsonl`` sidecar next
        to the journal (see :mod:`repro.campaign.timings`).  Observability
        only: the journal's bytes are identical with timings on or off.
        Requires ``artifact_dir``; ignored without one.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        artifact_dir: Optional[Union[str, Path]] = None,
        n_workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_backend: Optional[str] = None,
        shard: Optional[Tuple[int, int]] = None,
        service: Optional[SchedulingService] = None,
        simulation: Optional[SimulationService] = None,
        timings: bool = False,
    ):
        check_exclusive(
            cache_dir=cache_dir is not None, cache_backend=cache_backend is not None
        )
        if shard is not None:
            index, total = shard
            if total < 1 or not 1 <= index <= total:
                raise ValueError(
                    f"shard must satisfy 1 <= index <= total, got {shard!r}"
                )
            if artifact_dir is None:
                raise ValueError("sharded runs need an artifact_dir to merge from")
        self.spec = spec
        self.shard = shard
        self.n_workers = n_workers if service is None else service.n_workers
        if service is not None:
            self.service = service
            self._owns_service = False
        else:
            self.service = SchedulingService(
                n_workers=n_workers, cache_dir=cache_dir, cache_backend=cache_backend
            )
            self._owns_service = True

        # The simulation side (present only with a runtime section) schedules
        # through the same SchedulingService (and, if the runner built it, on
        # its pool), so run-time cells reuse the schedules just computed.
        self.simulation: Optional[SimulationService] = simulation
        self._owns_simulation = simulation is None
        if simulation is None and spec.runtime is not None:
            shared_pool = self._owns_service and self.n_workers > 1
            self.simulation = SimulationService(
                n_workers=self.n_workers,
                cache_backend=cache_backend,
                scheduling=self.service,
                executor=self.service._get_executor() if shared_pool else None,
            )

        self.directory: Optional[Path] = None
        self._journal: Optional[io.TextIOWrapper] = None
        self._journal_filename = (
            shard_journal_filename(*shard)
            if shard is not None
            else CAMPAIGN_JOURNAL_FILENAME
        )
        # Both grids' records: run-time keys are one coordinate longer, so
        # the two never collide.
        self._records: Dict[CellKey, CellValues] = {}
        if artifact_dir is not None:
            self.directory = Path(artifact_dir) / spec.content_key()
            self.directory.mkdir(parents=True, exist_ok=True)
            self._write_spec()
            self._load_journal()
        # Per-cell wall-clock timing sidecar (observability only): lines go
        # to <journal stem>.metrics.jsonl beside the journal, never into the
        # journal itself — journals stay byte-identical with timings on or
        # off, and shard merges ignore sidecars entirely.
        self._timings = TimingsWriter(self.directory, self._journal_filename, timings)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._timings.close()
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self.simulation is not None and self._owns_simulation:
            self.simulation.close()
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- state -------------------------------------------------------------------

    @property
    def completed_cells(self) -> int:
        """Cells already answered by the journal (or earlier runs)."""
        return len(self._records)

    # -- execution ---------------------------------------------------------------

    def run(self, *, max_cells: Optional[int] = None) -> CampaignResult:
        """Execute every pending cell of the grid (in canonical order).

        Both grids stream through their service (:meth:`submit_stream
        <repro.service.core.ContentAddressedService.submit_stream>`), and
        every response is journalled as it arrives, in canonical grid order,
        so the journal is the same at any worker count and an interrupt
        loses only the work in flight.  ``max_cells`` bounds how many
        *pending* cells this call evaluates (schedule cells first, then
        run-time cells); a subsequent call picks up exactly where this one
        stopped.
        """
        spec = self.spec
        # One response-time analysis per distinct system, not per cell.
        analysis_cache: Dict[Tuple[str, int], float] = {}
        # Each grid: its service, its cells, how a cell becomes a request and
        # how an answer becomes journal values.  The run-time grid follows the
        # schedule grid, so every simulation's embedded schedule question is
        # already cached when it runs.
        grids = (
            (
                self.service,
                spec.cells(),
                cell_request,
                lambda request, response: cell_values(
                    spec, request, response, analysis_cache=analysis_cache
                ),
            ),
            (
                self.simulation,
                spec.runtime_cells(),
                runtime_cell_request,
                lambda _request, response: runtime_cell_values(spec, response),
            ),
        )
        budget = max_cells
        evaluated = resumed = 0
        grid_records, expected = [], []
        for service, cells, request_of, values_of in grids:
            cells = list(cells)
            if self.shard is not None:
                # The shard's cells, still in canonical grid order (a
                # subsequence of it) — which is what makes the merged journal
                # byte-identical to a single-process run.
                index, n_shards = self.shard
                cells = [cell for cell in cells if cell_shard(spec, cell, n_shards) == index - 1]
            pending = [cell for cell in cells if cell.key() not in self._records]
            resumed += len(cells) - len(pending)
            if budget is not None:
                pending = pending[:budget]
                budget -= len(pending)
            if pending:
                # The service reads requests a window ahead; the tee hands
                # each request back beside its response without holding the
                # whole grid.
                requests, echoed = tee(request_of(spec, cell) for cell in pending)
                for response, cell, request in zip(
                    service.submit_stream(requests), pending, echoed
                ):
                    self._record(cell, values_of(request, response))
                    self._timings.write(
                        timing_entry(cell, cache=response.cache, elapsed_s=response.elapsed_s)
                    )
                    evaluated += 1
            keys = [cell.key() for cell in cells]
            grid_records.append({key: self._records[key] for key in keys if key in self._records})
            expected.append(len(cells))

        result = CampaignResult(
            spec=spec,
            records=grid_records[0],
            runtime_records=grid_records[1],
            evaluated=evaluated,
            resumed=resumed,
            expected_cells=expected[0],
            expected_runtime_cells=expected[1],
        )
        if self.shard is not None and result.complete:
            # Flush our shard journal, then merge if every shard is done.
            # Each finishing shard attempts this; the last one succeeds, and
            # concurrent attempts are harmless (identical bytes, atomic
            # replace).
            if self._journal is not None:
                self._journal.flush()
            assert self.directory is not None
            result.merged_journal = maybe_merge_shard_journals(
                self.directory, self.spec
            )
        return result

    # -- the journal -------------------------------------------------------------

    def _record(self, cell: CampaignCell, values: CellValues) -> None:
        self._records[cell.key()] = values
        if self.directory is None:
            return
        if self._journal is None:
            self._journal = open(
                self.directory / self._journal_filename, "a", encoding="utf-8"
            )
        self._journal.write(canonical_json(_entry_dict(cell, values)) + "\n")
        self._journal.flush()

    def _load_journal(self) -> None:
        assert self.directory is not None
        path = self.directory / self._journal_filename
        if not path.exists():
            return
        # A write cut short by an interrupt leaves a torn trailing line with
        # no newline; truncate it away *before* appending anything, or the
        # recomputed record would merge into the fragment and corrupt the
        # journal permanently.
        with open(path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            if content and not content.endswith("\n"):
                keep = content.rfind("\n") + 1
                handle.seek(keep)
                handle.truncate()
        for records in read_campaign_journal_full(path):
            self._records.update(records)

    def _write_spec(self) -> None:
        """Persist the spec payload next to the journal (humans + ``report``)."""
        assert self.directory is not None
        path = self.directory / CAMPAIGN_SPEC_FILENAME
        if path.exists():
            return
        atomic_write_json(path, self.spec.to_dict(), indent=2)


def run_campaign(
    spec: CampaignSpec,
    *,
    artifact_dir: Optional[Union[str, Path]] = None,
    n_workers: int = 1,
    cache_dir: Optional[str] = None,
    cache_backend: Optional[str] = None,
    shard: Optional[Tuple[int, int]] = None,
    service: Optional[SchedulingService] = None,
    max_cells: Optional[int] = None,
    timings: bool = False,
) -> CampaignResult:
    """One-call convenience wrapper: construct a runner, run, close."""
    with CampaignRunner(
        spec,
        artifact_dir=artifact_dir,
        n_workers=n_workers,
        cache_dir=cache_dir,
        cache_backend=cache_backend,
        shard=shard,
        service=service,
        timings=timings,
    ) as runner:
        return runner.run(max_cells=max_cells)


def read_campaign_journal_full(
    path: Union[str, Path],
) -> Tuple[Dict[CellKey, CellValues], Dict[CellKey, CellValues]]:
    """Parse a ``campaign.jsonl`` journal; unreadable lines are skipped.

    Returns ``(schedule_records, runtime_records)`` — lines carrying an
    ``"x"`` (execution model) field are run-time cells.  Purely read-only
    (no truncation, no directory creation) — the runner layers its torn-tail
    repair on top before it appends.
    """
    records: Dict[CellKey, CellValues] = {}
    runtime_records: Dict[CellKey, CellValues] = {}
    path = Path(path)
    if not path.exists():
        return records, runtime_records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                utilisation = entry["u"]
                cell = CampaignCell(
                    scenario=str(entry["sc"]),
                    method=str(entry["m"]),
                    utilisation=float(utilisation) if utilisation is not None else None,
                    system_index=int(entry["i"]),
                    replication=int(entry["r"]),
                    execution_model=str(entry["x"]) if "x" in entry else None,
                )
                values = dict(entry["v"])
            except (ValueError, KeyError, TypeError):
                # A truncated/corrupt line: almost certainly the final write
                # of an interrupted run.  The cell will be recomputed.
                continue
            (records if cell.execution_model is None else runtime_records)[cell.key()] = values
    return records, runtime_records


def load_campaign_records(
    artifact_dir: Union[str, Path], spec: CampaignSpec
) -> Tuple[Dict[CellKey, CellValues], Dict[CellKey, CellValues]]:
    """Read a campaign's journalled cells without running (or writing) anything.

    Returns ``(schedule_records, runtime_records)``.  Deliberately does *not*
    construct a runner: reporting on a campaign that was never executed must
    not leave a phantom artifact directory behind.
    """
    return read_campaign_journal_full(
        Path(artifact_dir) / spec.content_key() / CAMPAIGN_JOURNAL_FILENAME
    )


# -- shard journal merge --------------------------------------------------------


def find_shard_journals(directory: Union[str, Path]) -> Tuple[int, Dict[int, Path]]:
    """The shard journals present in one campaign directory.

    Returns ``(n_shards, {shard_index: path})`` with 1-based indices, or
    ``(0, {})`` when no shard journals exist.  Mixing journals from different
    shard totals (say a 2-way and a 4-way split of the same campaign) is a
    :class:`ValueError` — their keyspace ranges overlap, so merging them
    could double-count or miss cells.
    """
    directory = Path(directory)
    journals: Dict[int, Path] = {}
    totals = set()
    for path in sorted(directory.glob("campaign.shard-*.jsonl")):
        match = SHARD_JOURNAL_RE.match(path.name)
        if not match:
            continue
        index, total = int(match.group(1)), int(match.group(2))
        if total < 1 or not 1 <= index <= total:
            raise ValueError(f"nonsensical shard journal name {path.name!r}")
        totals.add(total)
        journals[index] = path
    if len(totals) > 1:
        raise ValueError(
            f"mixed shard totals in {directory}: "
            + ", ".join(sorted(path.name for path in journals.values()))
        )
    return (totals.pop() if totals else 0), journals


def merge_shard_journals(
    directory: Union[str, Path],
    spec: CampaignSpec,
    *,
    require_complete: bool = True,
) -> Path:
    """Reassemble the canonical ``campaign.jsonl`` from shard journals.

    Reads every ``campaign.shard-*.jsonl`` in ``directory`` and rewrites
    the union of their cells in canonical grid order — schedule cells
    first, then run-time cells — through the same entry builder and
    ``canonical_json`` encoding the runner itself uses.  The merged journal
    is therefore **byte-identical** to the one a single-process run of the
    same spec would have written.  The write is atomic (tempfile +
    ``os.replace``), and because every complete merge produces identical
    bytes, concurrent merge attempts by simultaneously-finishing shards are
    race-free.

    With ``require_complete`` (the default) a merge that would drop cells —
    missing shards, or shards that were interrupted mid-run — raises
    :class:`ValueError` instead of writing a partial canonical journal.
    """
    directory = Path(directory)
    n_shards, journals = find_shard_journals(directory)
    if not journals:
        raise ValueError(f"no shard journals found in {directory}")
    records: Dict[CellKey, CellValues] = {}
    for path in journals.values():
        for shard_records in read_campaign_journal_full(path):
            records.update(shard_records)
    cells = [*spec.cells(), *spec.runtime_cells()]
    missing = sum(1 for cell in cells if cell.key() not in records)
    if missing and require_complete:
        raise ValueError(
            f"cannot merge: {missing} cell(s) missing from the shard journals "
            f"(have shard(s) {sorted(journals)} of {n_shards})"
        )
    target = directory / CAMPAIGN_JOURNAL_FILENAME
    fd, tmp_name = tempfile.mkstemp(
        prefix=CAMPAIGN_JOURNAL_FILENAME + ".", suffix=".tmp", dir=str(directory)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for cell in cells:
                values = records.get(cell.key())
                if values is not None:
                    handle.write(canonical_json(_entry_dict(cell, values)) + "\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def maybe_merge_shard_journals(
    directory: Union[str, Path], spec: CampaignSpec
) -> Optional[Path]:
    """Merge the shard journals if their union covers the full grid.

    Returns the canonical journal's path, or ``None`` while shards are still
    missing or incomplete.  This is what a finishing shard worker calls: every
    worker tries, only the last one (or several at once, harmlessly) succeeds.
    """
    try:
        return merge_shard_journals(directory, spec)
    except ValueError:
        return None
