"""The scheduling service: batch request execution over a reusable worker pool.

:func:`execute_request` is the single, *pure* execution path: resolve the
request's spec through the scheduler registry, schedule the task set, and
fold the outcome into a :class:`~repro.service.messages.ScheduleResponse`.
Purity is load-bearing — for stochastic methods that were not given an
explicit ``seed`` option (the GA), the service derives one from the request's
content hash, so the same request yields bit-identical results in-process, on
any worker of the pool, and across runs.  That is what makes the
content-addressed :class:`~repro.service.cache.ScheduleCache` sound.

:class:`SchedulingService` runs :func:`execute_request` through the
content-addressed execution core (:mod:`repro.service.core`), which adds a
lazily created, reused **worker pool** (``n_workers=1`` runs serially
in-process), the **schedule cache** (cached requests are answered without
computing anything, and duplicates inside one batch are computed once) and
**provenance** (every response records whether it was a cache ``hit`` or
``miss`` — or ``disabled`` — under which content key, and how long the
computation took).  The subclass itself supplies only the pure function, the
request fields a pooled job ships, and its cache and response classes.

The experiment engine, the quickstart example, the controller simulation and
the ``python -m repro.service`` JSONL CLI all schedule through this facade.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Tuple

from repro.core.metrics import aggregate_psi, aggregate_upsilon
from repro.core.serialization import content_hash, schedule_to_dict
from repro.obs.trace import PHASE_SCHEDULE, span
from repro.scheduling.base import SystemScheduleResult
from repro.service.cache import ScheduleCache
from repro.service.core import ContentAddressedService
from repro.service.messages import ScheduleRequest, ScheduleResponse
from repro.service.spec import SchedulerSpec
from repro.store.backends import SCHEDULE_CACHE_SUBDIR

#: Canonical spec names for which the service derives a deterministic seed
#: when the request does not pin one.  Methods registered here must accept a
#: ``seed`` keyword override.
DERIVED_SEED_METHODS = frozenset({"ga"})

#: Scalar types of per-device ``info`` diagnostics that responses carry over.
_SCALAR_INFO_TYPES = (bool, int, float, str, type(None))


def derive_seed(request: ScheduleRequest) -> int:
    """Deterministic RNG seed derived from the request's content.

    Salted so the stream decorrelates from any other use of the same hash.
    """
    return int(content_hash({"purpose": "service-derived-seed", "request": request.content_key()}), 16)


def effective_spec(request: ScheduleRequest) -> SchedulerSpec:
    """The spec actually executed: the request's canonical spec, plus a derived seed if needed."""
    spec = request.spec.canonical()
    if spec.name in DERIVED_SEED_METHODS and spec.options_dict().get("seed") is None:
        return spec.with_options(seed=derive_seed(request))
    return spec


def ga_best_objectives(result: SystemScheduleResult) -> Tuple[float, float]:
    """Aggregate the best-Psi and best-Upsilon Pareto points across devices.

    Each per-device GA search yields its own Pareto front; the system-level
    figures use the best-Psi (respectively best-Upsilon) schedule of every
    partition, aggregated job-weighted, mirroring how the paper reports "the
    best result obtained for each objective".  For single-schedule methods the
    per-device fronts degenerate to the produced schedule, so the aggregates
    equal the plain system Psi/Upsilon.
    """
    best_psi_schedules = []
    best_upsilon_schedules = []
    for device_result in result.per_device.values():
        info = device_result.info
        psi_schedule = info.get("best_psi_schedule") or device_result.schedule
        upsilon_schedule = info.get("best_upsilon_schedule") or device_result.schedule
        if psi_schedule is not None:
            best_psi_schedules.append(psi_schedule)
        if upsilon_schedule is not None:
            best_upsilon_schedules.append(upsilon_schedule)
    best_psi = aggregate_psi(best_psi_schedules) if best_psi_schedules else 0.0
    best_upsilon = aggregate_upsilon(best_upsilon_schedules) if best_upsilon_schedules else 0.0
    return best_psi, best_upsilon


def _effective_horizon(request: ScheduleRequest) -> int:
    if request.horizon is not None:
        return request.horizon
    task_set = request.effective_task_set()
    return task_set.hyperperiod() if len(task_set) else 0


def build_response(
    request: ScheduleRequest,
    spec: SchedulerSpec,
    result: SystemScheduleResult,
    *,
    produces_schedule: bool = True,
    elapsed_s: float = 0.0,
) -> ScheduleResponse:
    """Fold a scheduler outcome into the response envelope (deterministic).

    A method that produces no schedule only answers whether the task set is
    schedulable: its metrics read 0.0 and it has no per-device entries.
    """
    per_device: Dict[str, Dict[str, Any]] = {}
    psi = upsilon = best_psi = best_upsilon = 0.0
    if produces_schedule:
        task_set = request.effective_task_set()
        for device, device_result in result.per_device.items():
            schedule = device_result.schedule
            info = {
                key: value
                for key, value in device_result.info.items()
                if isinstance(value, _SCALAR_INFO_TYPES)
            }
            per_device[device] = {
                "schedulable": bool(device_result.schedulable),
                "psi": device_result.psi,
                "upsilon": device_result.upsilon,
                "n_jobs": device_result.metrics.n_jobs,
                "schedule": (
                    schedule_to_dict(schedule, task_set) if schedule is not None else None
                ),
                "info": info,
            }
        psi, upsilon = result.psi, result.upsilon
        best_psi, best_upsilon = ga_best_objectives(result)
    return ScheduleResponse(
        request_id=request.request_id,
        spec=str(spec),
        horizon=_effective_horizon(request),
        schedulable=bool(result.schedulable),
        psi=psi,
        upsilon=upsilon,
        best_psi=best_psi,
        best_upsilon=best_upsilon,
        per_device=per_device,
        elapsed_s=elapsed_s,
    )


def execute_request(request: ScheduleRequest) -> ScheduleResponse:
    """Execute one request end to end; pure in the request's content.

    The returned response carries no cache provenance (``cache="disabled"``);
    the service stamps hit/miss status and the content key on top.
    """
    start = time.perf_counter()
    spec = effective_spec(request)
    scheduler = spec.resolve()
    task_set = request.effective_task_set()
    with span(PHASE_SCHEDULE):
        if request.horizon is None:
            result = scheduler.schedule_taskset(task_set)
        else:
            result = scheduler.schedule_taskset(task_set, request.horizon)
    produces_schedule = bool(getattr(scheduler, "produces_schedule", True))
    elapsed = time.perf_counter() - start
    return build_response(
        request, spec, result, produces_schedule=produces_schedule, elapsed_s=elapsed
    )


class SchedulingService(ContentAddressedService[ScheduleRequest, ScheduleResponse]):
    """Request/response facade over the schedulers, with batching and caching.

    Parameters
    ----------
    n_workers:
        Worker processes for batch execution; ``1`` (the default) runs
        serially in-process.  Responses are bit-identical at any worker
        count.
    cache_dir:
        Directory for the persistent schedule cache; ``None`` keeps the
        cache in memory only.
    cache_backend:
        Storage-backend spec string (see :mod:`repro.store`) — e.g.
        ``sqlite:path=cache.db`` or ``directory:root=DIR`` — or a live
        :class:`~repro.store.CacheBackend`.  Directory specs persist under
        ``root/schedules`` (the shared two-namespace cache layout);
        ``cache_dir`` remains the shorthand for using a directory as the
        schedule cache *root* directly.  The service owns a backend it
        opened from a string (closed with the service).
    cache:
        An explicit :class:`ScheduleCache` to share between services, or
        ``None`` to disable the cache: nothing is stored across batches and
        responses carry ``cache="disabled"``.  Content-identical requests
        *within* one window of a stream are still computed only once (the
        execution path is pure, so recomputing them could never change the
        answer).
    executor:
        An existing worker pool to execute on instead of creating one — the
        serving daemon of :mod:`repro.server` shares one warm
        ``ProcessPoolExecutor`` between the scheduling and simulation
        services this way.  The caller keeps ownership (:meth:`close` will
        not shut a borrowed executor down); ``n_workers`` should describe
        its size.
    chunksize:
        Jobs per pool chunk of a stream; ``None`` (the default) derives
        ``max(1, STREAM_WINDOW // (2 * n_workers))``, so a window of misses
        fills the ``2 * n_workers`` chunks a stream keeps in flight.  Each
        chunk ships its distinct scenario envelopes once, however many jobs
        reference them.  Responses are bit-identical at any chunk size.

    Use the service as a context manager (or call :meth:`close`) to release
    the worker pool.
    """

    METRICS_KIND = "schedule"
    REQUEST_CLS = ScheduleRequest
    RESPONSE_CLS = ScheduleResponse
    CACHE_CLS = ScheduleCache
    CACHE_SUBDIR = SCHEDULE_CACHE_SUBDIR
    SLIM_FIELDS = ("system_index", "spec", "horizon", "request_id")

    # Bound in this class's own namespace (not only inherited) so code that
    # wraps it through ``SchedulingService.__dict__`` finds it.
    submit_batch = ContentAddressedService.submit_batch

    def execute(self, request: ScheduleRequest) -> ScheduleResponse:
        return execute_request(request)

    @staticmethod
    @contextmanager
    def open_worker(context: Any):
        yield lambda request, extra: execute_request(request)
