"""Async request dispatch: admission control, in-flight dedup, live counters.

The dispatcher is the daemon's policy layer between the wire and the warm
services.  For every admitted request it runs exactly the same pure execution
path as the batch CLIs: the services' one pool-worker entry, reached through
:meth:`execute_in_pool
<repro.service.core.ContentAddressedService.execute_in_pool>` on the shared
worker pool.  Cached answers come from the service's :meth:`lookup
<repro.service.core.ContentAddressedService.lookup>` and computed ones go back
through its :meth:`store <repro.service.core.ContentAddressedService.store>`.
On top of that it layers three serving-only behaviours:

* **admission control** — at most ``max_queue`` computations may be queued or
  running at once; a request that would exceed the bound is rejected with
  :class:`Overloaded`, carrying a ``retry_after_s`` hint derived from the
  observed compute time and the current backlog (the client library sleeps
  and retries on it).  Cache hits and deduplicated followers bypass
  admission entirely: they cost no compute.
* **cross-request in-flight dedup** — a request whose content key is already
  being computed (for any client, on any connection) awaits the same future
  instead of re-evaluating.  The leader's response is stamped ``miss``;
  followers are stamped ``hit`` exactly like repeats within a stream of
  :meth:`SchedulingService.submit_stream`.
* **drain** — once :meth:`drain` is called, new computations are refused with
  :class:`Draining` while everything already in flight runs to completion,
  which is what makes the daemon's shutdown graceful.

Every counter lives on the dispatcher's :class:`~repro.obs.MetricsRegistry`
(``repro_server_requests_total``, ``repro_server_computed_total``,
``repro_server_dedup_total``, ``repro_requests_total`` and the phase latency
histograms); :meth:`stats` reads the same registry, so the ``stats`` RPC and
the ``metrics`` RPC can never disagree.  Pool workers ship their own registry
snapshots back with each result and the dispatcher merges them in.

Everything is content-addressed and pure, so admission/dedup/caching —
and observation — can never change an answer, only how much work producing
it costs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs.metrics import (
    REQUEST_LATENCY_MS,
    REQUESTS_TOTAL,
    SERVER_COMPUTED_TOTAL,
    SERVER_DEDUP_TOTAL,
    SERVER_REQUESTS_TOTAL,
    MetricsRegistry,
)
from repro.obs.trace import PHASE_CACHE_LOOKUP, PHASE_STORE
from repro.runtime.messages import SimulationRequest, SimulationResponse
from repro.runtime.service import SimulationService
from repro.service.core import ContentAddressedService
from repro.service.messages import (
    CACHE_DISABLED,
    CACHE_HIT,
    CACHE_MISS,
    ScheduleRequest,
    ScheduleResponse,
)
from repro.service.service import SchedulingService

#: Default bound on queued-or-running computations.
DEFAULT_MAX_QUEUE = 64

#: Dispatch kinds (stats sections and in-flight namespaces).
KIND_SCHEDULE = "schedule"
KIND_SIMULATION = "simulation"

Response = Union[ScheduleResponse, SimulationResponse]

_ADMISSION_HELP = "Daemon admission outcomes (admitted/rejected/failed)."
_COMPUTED_HELP = "Computations completed by the daemon's dispatcher, by kind."
_DEDUP_HELP = "Requests answered by awaiting an identical in-flight computation."
_REQUESTS_HELP = "Requests answered, by kind and cache status."
_LATENCY_HELP = "Per-phase request latency in milliseconds."


class Overloaded(Exception):
    """Admission refused: the queue is full.  Retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float):
        super().__init__(f"admission queue full; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class Draining(Exception):
    """Admission refused: the daemon is shutting down."""


class Dispatcher:
    """Admission + dedup + caching over the two warm services' pools."""

    def __init__(
        self,
        *,
        scheduling: SchedulingService,
        simulation: SimulationService,
        max_queue: int = DEFAULT_MAX_QUEUE,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not isinstance(max_queue, int) or max_queue < 1:
            raise ValueError(f"max_queue must be a positive integer, got {max_queue!r}")
        self.scheduling = scheduling
        self.simulation = simulation
        self.max_queue = max_queue
        self.draining = False
        #: Content keys currently being computed -> the future their waiters share.
        self._inflight: Dict[Tuple[str, str], "asyncio.Future[Response]"] = {}
        self._active = 0
        #: All dispatcher counters and phase histograms live here (the daemon
        #: passes its own registry so one scrape covers everything).
        self.registry = metrics if metrics is not None else MetricsRegistry()
        # EWMA of observed compute seconds, seeding the retry-after hint.
        self._avg_compute_s = 0.1

    # -- counters (the registry is the one source of truth) ----------------------

    def _count_admission(self, result: str) -> None:
        self.registry.counter_inc(
            SERVER_REQUESTS_TOTAL, help=_ADMISSION_HELP, result=result
        )

    def _count_request(self, kind: str, cache: str) -> None:
        self.registry.counter_inc(
            REQUESTS_TOTAL, help=_REQUESTS_HELP, kind=kind, cache=cache
        )

    def _observe_phase(self, kind: str, phase: str, duration_s: float) -> None:
        self.registry.histogram_observe(
            REQUEST_LATENCY_MS,
            max(0.0, duration_s) * 1000.0,
            help=_LATENCY_HELP,
            kind=kind,
            phase=phase,
        )

    @property
    def admitted(self) -> int:
        return int(self.registry.counter_value(SERVER_REQUESTS_TOTAL, result="admitted"))

    @property
    def rejected(self) -> int:
        return int(self.registry.counter_value(SERVER_REQUESTS_TOTAL, result="rejected"))

    @property
    def failed(self) -> int:
        return int(self.registry.counter_value(SERVER_REQUESTS_TOTAL, result="failed"))

    def computed(self, kind: str) -> int:
        return int(self.registry.counter_value(SERVER_COMPUTED_TOTAL, kind=kind))

    def deduped(self, kind: str) -> int:
        return int(self.registry.counter_value(SERVER_DEDUP_TOTAL, kind=kind))

    # -- the API -----------------------------------------------------------------

    async def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        """Answer one scheduling request (cache -> dedup -> admitted compute)."""
        return await self._dispatch(KIND_SCHEDULE, self.scheduling, request)

    async def simulate(self, request: SimulationRequest) -> SimulationResponse:
        """Answer one simulation request (cache -> dedup -> admitted compute)."""
        return await self._dispatch(KIND_SIMULATION, self.simulation, request)

    async def _dispatch(
        self, kind: str, service: ContentAddressedService, request
    ) -> Response:
        key = request.content_key()
        if service.cache is not None:
            lookup_started = time.monotonic()
            cached = service.lookup(request)
            self._observe_phase(
                kind, PHASE_CACHE_LOOKUP, time.monotonic() - lookup_started
            )
            if cached is not None:
                self._count_request(kind, CACHE_HIT)
                return cached

        token = (kind, key)
        existing = self._inflight.get(token)
        if existing is not None:
            # Same content, already being computed for someone else: await the
            # shared future (shielded — one waiter's cancellation must not
            # cancel the computation out from under the others).
            self.registry.counter_inc(SERVER_DEDUP_TOTAL, help=_DEDUP_HELP, kind=kind)
            result = await asyncio.shield(existing)
            self._count_request(kind, CACHE_HIT)
            return replace(
                result, request_id=request.request_id, cache=CACHE_HIT, cache_key=key
            )

        if self.draining:
            raise Draining("daemon is draining; no new work admitted")
        if self._active >= self.max_queue:
            self._count_admission("rejected")
            raise Overloaded(self.retry_after_s())

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()
        self._inflight[token] = future
        self._active += 1
        self._count_admission("admitted")
        # The computation runs as its own task, decoupled from this request's:
        # a client that disconnects mid-compute (cancelling its handler task)
        # must not tear down work that other waiters — or the cache — still
        # want.  Leader and followers alike await the shielded shared future.
        loop.create_task(self._compute(kind, token, service, request, future))
        result = await asyncio.shield(future)
        status = CACHE_MISS if service.cache is not None else CACHE_DISABLED
        self._count_request(kind, status)
        return replace(result, request_id=request.request_id, cache=status, cache_key=key)

    async def _compute(
        self,
        kind: str,
        token: Tuple[str, str],
        service: ContentAddressedService,
        request,
        future: "asyncio.Future[Response]",
    ) -> None:
        started = time.perf_counter()
        try:
            result, _trace, snapshot = await asyncio.wrap_future(
                service.execute_in_pool(request)
            )
            # The worker's registry snapshot merges into ours (phase
            # histograms, queue-wait included).
            self.registry.merge(snapshot)
            self._avg_compute_s += 0.2 * (
                (time.perf_counter() - started) - self._avg_compute_s
            )
            if service.cache is not None:
                # Populate the cache *before* dropping the in-flight token:
                # an identical request arriving in between must find one of
                # the two, never a gap that would recompute.
                store_started = time.monotonic()
                service.store(token[1], result)
                self._observe_phase(
                    kind, PHASE_STORE, time.monotonic() - store_started
                )
        except BaseException as error:
            # A failed compute and a failed store (a locked database, a full
            # disk) alike resolve the shared future, so no waiter hangs.
            self._count_admission("failed")
            future.set_exception(error)
            future.exception()  # waiters re-raise on their own await
        else:
            self.registry.counter_inc(
                SERVER_COMPUTED_TOTAL, help=_COMPUTED_HELP, kind=kind
            )
            future.set_result(result)
        finally:
            del self._inflight[token]
            self._active -= 1

    # -- lifecycle ---------------------------------------------------------------

    async def drain(self) -> None:
        """Refuse new work and wait for everything in flight to finish."""
        self.draining = True
        pending = [future for future in self._inflight.values() if not future.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- introspection -----------------------------------------------------------

    def retry_after_s(self) -> float:
        """Back-off hint: roughly one backlog's worth of observed compute time."""
        workers = max(1, self.scheduling.n_workers)
        backlog = max(1, self._active)
        return round(max(0.05, self._avg_compute_s * backlog / workers), 3)

    @property
    def queue_depth(self) -> int:
        """Computations currently queued or running."""
        return self._active

    def stats(self) -> Dict[str, Any]:
        """Live snapshot: queue, admission counters, per-kind compute + caches.

        Every number is read off :attr:`registry` — the same source the
        ``metrics`` RPC renders.
        """
        schedule_cache = self.scheduling.cache
        sim_cache = self.simulation.cache
        return {
            "queue": {"depth": self._active, "limit": self.max_queue},
            "requests": {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "failed": self.failed,
                "in_flight_dedup": self.deduped(KIND_SCHEDULE)
                + self.deduped(KIND_SIMULATION),
            },
            KIND_SCHEDULE: {
                "computed": self.computed(KIND_SCHEDULE),
                "in_flight_dedup": self.deduped(KIND_SCHEDULE),
                "cache": schedule_cache.stats() if schedule_cache is not None else None,
            },
            KIND_SIMULATION: {
                "computed": self.computed(KIND_SIMULATION),
                "in_flight_dedup": self.deduped(KIND_SIMULATION),
                "cache": sim_cache.stats() if sim_cache is not None else None,
            },
        }
