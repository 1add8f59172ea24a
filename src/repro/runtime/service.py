"""The simulation service: batch run-time execution over a reusable pool.

:func:`execute_simulation` is the single, *pure* execution path: obtain the
offline schedule (through a :class:`~repro.service.SchedulingService` when one
is supplied — reusing its content-addressed schedule cache — or the pure
:func:`~repro.service.service.execute_request` otherwise), build a fresh
platform from the scenario, resolve the execution model through the registry,
run it on the stored schedule decoded into flat vectors
(:meth:`~repro.service.messages.ScheduleResponse.flat_schedules`), and fold
the outcome into a :class:`~repro.runtime.messages.SimulationResponse`.  Purity is load-bearing:
the execution seed defaults to a hash of the request's content and the
scheduling path derives its own seeds the same way, so the same request
yields bit-identical results in-process, on any worker of the pool, and
across runs — which is what makes the content-addressed simulation cache
sound.

:class:`SimulationService` runs :func:`execute_simulation` through the same
content-addressed execution core as the scheduling service
(:mod:`repro.service.core`: worker pool, in-batch dedup, response cache,
hit/miss provenance).  What it adds is the offline schedule: it owns or
borrows a :class:`~repro.service.SchedulingService`, and each pooled chunk
carries the schedules that service already holds plus its schedule cache's
backend spec, which the worker re-opens once per chunk.

The controller-simulation experiment, the campaign runner and the
``python -m repro.runtime`` JSONL CLI all simulate through this facade.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.core.serialization import content_hash
from repro.hardware.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import PHASE_SCHEDULE, PHASE_SIMULATE, span
from repro.runtime.messages import SimulationRequest, SimulationResponse
from repro.runtime.models import ExecutionOutcome
from repro.scenario import build_platform, materialize
from repro.service.cache import ScheduleCache
from repro.service.core import (
    CACHE_DEFAULT,
    ContentAddressedService,
    check_exclusive,
    distinct_registries,
)
from repro.service.messages import ScheduleResponse
from repro.service.service import SchedulingService, execute_request
from repro.store.backends import SIM_CACHE_SUBDIR
from repro.store.registry import create_backend

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import CacheBackend

SIM_CACHE_ENTRY_KIND = "repro/sim-cache-entry"
SIM_CACHE_ENTRY_VERSION = 1


class SimulationCache(ScheduleCache):
    """Content-addressed store of simulation results.

    The same machinery as the schedule cache, under its own payload kind, so
    a simulation entry can never be misread as a schedule entry (or vice
    versa) even when the two caches share a directory — or one SQLite file.
    """

    METRICS_LABEL = "simulation"

    def __init__(self, directory=None, *, backend=None, metrics=None):
        super().__init__(
            directory,
            backend=backend,
            kind=SIM_CACHE_ENTRY_KIND,
            version=SIM_CACHE_ENTRY_VERSION,
            metrics=metrics,
        )


def derive_execution_seed(request: SimulationRequest) -> int:
    """Deterministic execution-RNG seed for a request that does not pin one.

    Salted so the stream decorrelates from the scenario-materialisation and
    schedule-seed streams derived from the same content hashes.
    """
    return int(
        content_hash(
            {"purpose": "runtime-execution-seed", "request": request.content_key()}
        ),
        16,
    )


def _response(
    request: SimulationRequest, schedule_response: ScheduleResponse, started: float, **result
) -> SimulationResponse:
    """The answer to ``request``: what the request and its schedule fix, plus ``result``."""
    return SimulationResponse(
        request_id=request.request_id,
        scenario=request.scenario.name,
        method=schedule_response.spec,
        execution_model=str(request.execution_model.canonical()),
        system_index=request.system_index,
        horizon=schedule_response.horizon,
        offline_psi=schedule_response.psi,
        offline_upsilon=schedule_response.upsilon,
        elapsed_s=time.perf_counter() - started,
        **result,
    )


def _trace_summary(outcome: ExecutionOutcome, deviations: List[int]) -> Dict[str, object]:
    return {
        "event_counts": dict(outcome.trace_counts),
        "max_deviation": max(deviations) if deviations else 0,
        "mean_deviation": (sum(deviations) / len(deviations)) if deviations else 0.0,
    }


def execute_simulation(
    request: SimulationRequest,
    *,
    scheduling: Optional[SchedulingService] = None,
    schedule_response: Optional[ScheduleResponse] = None,
) -> SimulationResponse:
    """Execute one simulation request end to end; pure in the request's content.

    ``scheduling`` is an optional scheduling service to obtain the offline
    schedule through (sharing its content-addressed schedule cache with every
    other consumer); without one the schedule is computed directly via the
    pure :func:`~repro.service.service.execute_request` — the *result* is
    identical either way, only the caching differs.  ``schedule_response``
    short-circuits scheduling entirely: it must be the (deterministic) answer
    to ``request.schedule_request()`` — this is how the service ships
    already-cached schedules to pool workers.

    The returned response carries no cache provenance (``cache="disabled"``);
    :class:`SimulationService` stamps hit/miss status and the content key on
    top.
    """
    start = time.perf_counter()
    if schedule_response is None:
        schedule_request = request.schedule_request()
        if scheduling is not None:
            # The scheduling service traces its own batch internally; the
            # span records the whole schedule-obtaining phase on *this*
            # request's trace.  The bare execute_request path records its own
            # schedule span, so either way the trace carries exactly one.
            with span(PHASE_SCHEDULE):
                schedule_response = scheduling.submit(schedule_request)
        else:
            schedule_response = execute_request(schedule_request)

    if not schedule_response.schedulable:
        return _response(
            request, schedule_response, start, schedulable=False, accuracy=0.0, psi=0.0,
            upsilon=0.0, matches_offline=False, executed_jobs=0, skipped_jobs=0,
            faults_detected=0, mean_noc_latency=0.0, max_noc_latency=0, events_processed=0,
            exhausted=False, trace={},
        )

    with span(PHASE_SIMULATE):
        # A fresh platform per execution: simulation objects are stateful.
        # With an explicit workload only the platform and faults come from
        # the scenario; otherwise the whole triple is materialised
        # deterministically.
        if request.task_set is not None:
            task_set = request.task_set
            platform = build_platform(
                request.scenario.platform,
                fault_injector=FaultInjector(list(request.scenario.faults.faults)),
            )
        else:
            materialized = materialize(request.scenario, request.system_index)
            task_set = materialized.task_set
            platform = materialized.platform

        schedules = schedule_response.flat_schedules(task_set)
        seed = (
            request.seed if request.seed is not None else derive_execution_seed(request)
        )
        model = request.execution_model.resolve()
        outcome = model.execute_flat(
            task_set, schedules, platform, seed=seed, max_events=request.max_events
        )
    deviations = outcome.start_time_deviations()

    return _response(
        request,
        schedule_response,
        start,
        schedulable=True,
        accuracy=outcome.accuracy_of(deviations),
        psi=outcome.psi,
        upsilon=outcome.upsilon,
        matches_offline=outcome.matches_offline,
        executed_jobs=outcome.executed_jobs,
        skipped_jobs=outcome.skipped_jobs,
        faults_detected=outcome.faults_detected,
        mean_noc_latency=outcome.mean_noc_latency,
        max_noc_latency=outcome.max_noc_latency,
        events_processed=outcome.events_processed,
        exhausted=outcome.exhausted,
        trace=_trace_summary(outcome, deviations),
    )


class SimulationService(ContentAddressedService[SimulationRequest, SimulationResponse]):
    """Request/response facade over run-time execution, with batching and caching.

    Parameters
    ----------
    n_workers:
        Worker processes for batch execution; ``1`` (the default) runs
        serially in-process.  Responses are bit-identical at any worker
        count.
    cache_dir:
        Directory for the persistent simulation-response cache; ``None``
        keeps the cache in memory only.
    cache_backend:
        Storage-backend spec string (see :mod:`repro.store`) or live
        :class:`~repro.store.CacheBackend` for the simulation-response
        cache; directory specs persist under ``root/sim-responses``.  When
        no ``scheduling`` service is given, the owned one opens the same
        spec too (its directory form lands under ``root/schedules``; a
        single-file backend like SQLite holds both caches in one store,
        separated by payload kind).  Backends opened from a string are
        owned (closed with the service).
    cache:
        An explicit :class:`SimulationCache` to share between services, or
        ``None`` to disable response caching (in-batch dedup still applies).
    scheduling:
        An existing :class:`~repro.service.SchedulingService` to obtain
        offline schedules through (serial path; the caller keeps ownership).
        ``None`` creates an owned one over ``schedule_cache_dir`` (or
        ``cache_backend``).
    schedule_cache_dir:
        Persistent schedule-cache directory for the owned scheduling service
        *and* for pool workers (each worker opens the shared directory).
        When ``scheduling`` is given with a persistent cache, its backend
        spec is shipped to the workers automatically.
    executor:
        An existing worker pool to execute on instead of creating one (the
        :mod:`repro.server` daemon shares one warm pool between scheduling
        and simulation).  The caller keeps ownership; ``n_workers`` should
        describe its size.
    chunksize:
        Jobs per pool chunk of a stream; ``None`` (the default) derives
        ``max(1, STREAM_WINDOW // (2 * n_workers))``.  Each chunk ships its
        distinct scenario envelopes once and re-opens the persistent
        schedule cache once.  Responses are bit-identical at any chunk size.
    """

    METRICS_KIND = "simulation"
    REQUEST_CLS = SimulationRequest
    RESPONSE_CLS = SimulationResponse
    CACHE_CLS = SimulationCache
    CACHE_SUBDIR = SIM_CACHE_SUBDIR
    SLIM_FIELDS = (
        "method",
        "execution_model",
        "system_index",
        "horizon",
        "max_events",
        "seed",
        "request_id",
    )

    # Bound in this class's own namespace (not only inherited) so code that
    # wraps it through ``SimulationService.__dict__`` finds it.
    submit_batch = ContentAddressedService.submit_batch

    def __init__(
        self,
        *,
        n_workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_backend: Optional[Union[str, "CacheBackend"]] = None,
        cache: Union[SimulationCache, None, object] = CACHE_DEFAULT,
        scheduling: Optional[SchedulingService] = None,
        schedule_cache_dir: Optional[str] = None,
        executor: Optional[Executor] = None,
        chunksize: Optional[int] = None,
    ):
        check_exclusive(
            scheduling=scheduling is not None,
            schedule_cache_dir=schedule_cache_dir is not None,
        )
        check_exclusive(
            cache_backend=cache_backend is not None,
            schedule_cache_dir=schedule_cache_dir is not None,
        )
        super().__init__(
            n_workers=n_workers,
            cache_dir=cache_dir,
            cache_backend=cache_backend,
            cache=cache,
            executor=executor,
            chunksize=chunksize,
        )
        self._owns_scheduling = scheduling is None
        if scheduling is None:
            if isinstance(cache_backend, str):
                scheduling = SchedulingService(cache_backend=cache_backend)
            else:
                scheduling = SchedulingService(cache_dir=schedule_cache_dir)
        self.scheduling = scheduling

    def close(self) -> None:
        super().close()
        if self._owns_scheduling:
            self.scheduling.close()

    def execute(self, request: SimulationRequest) -> SimulationResponse:
        return execute_simulation(request, scheduling=self.scheduling)

    def pool_context(
        self, requests: List[SimulationRequest]
    ) -> Tuple[Optional[str], List[Optional[Dict[str, Any]]]]:
        """The schedule cache's backend spec, plus each job's schedule when
        the scheduling service already holds it.

        Shipping held schedules (e.g. the ones a campaign's schedule cells
        just computed) means workers never recompute them, even when the
        schedule cache is memory-only; one batched peek covers all jobs.
        The peek leaves no in-process copy of what the backend holds.
        """
        schedule_cache = self.scheduling.cache
        if schedule_cache is None:
            return None, [None] * len(requests)
        keys = [request.schedule_request().content_key() for request in requests]
        peeked = schedule_cache.peek_many(keys)
        schedule_cache.clear_memory(keys)
        return schedule_cache.backend_spec(), [peeked.get(key) for key in keys]

    @staticmethod
    @contextmanager
    def open_worker(schedule_backend_spec: Optional[str]):
        """Re-open the dispatching service's persistent schedule cache once
        per chunk, so pool workers reuse schedules computed by anyone (every
        backend writes atomically and is safe for concurrent writers)."""
        scheduling = None
        if schedule_backend_spec is not None:
            scheduling = SchedulingService(
                cache=ScheduleCache(backend=create_backend(schedule_backend_spec))
            )
        try:
            yield lambda request, schedule: execute_simulation(
                request,
                scheduling=scheduling,
                schedule_response=(
                    None if schedule is None else ScheduleResponse.from_result_dict(schedule)
                ),
            )
        finally:
            if scheduling is not None:
                scheduling.cache.close()

    def metrics_registries(self) -> List[MetricsRegistry]:
        """Every distinct registry this service's metrics live on (including
        the scheduling service it obtains offline schedules through)."""
        return distinct_registries(
            super().metrics_registries() + self.scheduling.metrics_registries()
        )
