"""The content-addressed execution core shared by both services.

A service answers requests whose answer is a pure function of the request's
content, so a response can be cached under the request's content key and any
copy of a request can share one computation.  :class:`ContentAddressedService`
owns the pipeline that exploits this, once for
:class:`~repro.service.SchedulingService` and
:class:`~repro.runtime.SimulationService`:

content key → one batched cache lookup per window → dedup → serial or
chunked pool execution → a store before every answer → per-position
``hit``/``miss``/``disabled`` provenance, with each request's phase
breakdown in :attr:`~ContentAddressedService.last_traces` and the phase
latency histograms and request counters on the service's registry.
:meth:`~ContentAddressedService.submit_stream` runs the pipeline over any
iterable of requests and yields answers in request order;
:meth:`~ContentAddressedService.submit_batch` is its list.

A subclass supplies only what differs: :meth:`~ContentAddressedService.execute`
(the pure execution path, run in this process), the request fields a pooled
job ships (:attr:`~ContentAddressedService.SLIM_FIELDS`), what a pooled job
needs besides its request (:meth:`~ContentAddressedService.pool_context` and
:meth:`~ContentAddressedService.open_worker`), and its request, response and
cache classes.

:func:`execute_chunk` is the one pool-worker entry.  :meth:`submit_stream
<ContentAddressedService.submit_stream>` ships chunks of jobs through it, and
:meth:`execute_in_pool <ContentAddressedService.execute_in_pool>` — the
serving daemon's unit of work — ships a chunk of one.
"""

from __future__ import annotations

import json
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from dataclasses import replace
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.memo import drain_memo_metrics
from repro.obs.metrics import (
    REQUESTS_TOTAL,
    MetricsRegistry,
    merge_snapshots,
    observe_phases,
)
from repro.obs.trace import (
    PHASE_CACHE_LOOKUP,
    PHASE_QUEUE_WAIT,
    PHASE_STORE,
    Trace,
    activate,
)
from repro.service.cache import ScheduleCache
from repro.service.messages import CACHE_DISABLED, CACHE_HIT, CACHE_MISS
from repro.store.registry import create_backend

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import CacheBackend

Req = TypeVar("Req")
Resp = TypeVar("Resp")

#: Default of the ``cache`` argument: a cache the service creates itself
#: (``None`` means "no cache at all").
CACHE_DEFAULT: Any = object()


def check_exclusive(**given: bool) -> None:
    """Raise ``ValueError`` if more than one of the named options was passed."""
    passed = [name for name, present in given.items() if present]
    if len(passed) > 1:
        names = list(given)
        raise ValueError(
            f"pass at most one of {', '.join(names[:-1])} and {names[-1]}, "
            f"not both {' and '.join(passed)}"
        )


def distinct_registries(registries: Iterable[MetricsRegistry]) -> List[MetricsRegistry]:
    """``registries`` without repeats (by identity), in first-seen order, so
    merging their snapshots never double-counts."""
    distinct: List[MetricsRegistry] = []
    for registry in registries:
        if all(registry is not seen for seen in distinct):
            distinct.append(registry)
    return distinct


def execute_chunk(
    payload: Tuple[type, Any, Dict[str, Any], List[Tuple[Any, ...]], Optional[float]],
) -> Tuple[List[Tuple[Any, Dict[str, Any]]], Dict[str, Any]]:
    """The pool-worker entry: execute one slim chunk of jobs.

    ``payload`` is ``(service_cls, context, scenarios, entries, submitted)``:
    the service class whose hooks inflate and run the jobs, its
    :meth:`~ContentAddressedService.pool_context` for the batch, the chunk's
    shared scenario table, one ``(slim_request, content_key, trace_id,
    extra)`` entry per job, and the dispatching process's ``time.monotonic()``
    at submission (comparable across processes on one machine) or ``None``.

    Each job runs under its own trace, with the queue-wait it observed when
    its turn came.  Returns ``([(response, trace_dict), ...], snapshot)``:
    one registry snapshot covers every job's phases plus this worker's
    memo-cache deltas.  Responses are untouched by the observation, so
    answers stay byte-identical to serial execution.
    """
    service_cls, context, scenarios, entries, submitted = payload
    registry = MetricsRegistry()
    outcomes: List[Tuple[Any, Dict[str, Any]]] = []
    with service_cls.open_worker(context) as run:
        for slim, content_key, trace_id, extra in entries:
            request = service_cls.inflate(slim, scenarios)
            # Seed the content key so nobody in the worker re-hashes it.
            object.__setattr__(request, "_content_key", content_key)
            trace = Trace(trace_id)
            if submitted is not None:
                trace.add_phase(PHASE_QUEUE_WAIT, time.monotonic() - submitted)
            with activate(trace):
                response = run(request, extra)
            observe_phases(registry, service_cls.METRICS_KIND, trace.phases)
            outcomes.append((response, trace.to_dict()))
    drain_memo_metrics(registry)
    return outcomes, registry.snapshot()


#: Requests per window of :meth:`ContentAddressedService.submit_stream`: one
#: batched cache lookup answers a window, and once it is answered the cache
#: drops its in-process copies of the window's entries.
STREAM_WINDOW = 64


class _Job:
    """One distinct content key a stream computes, and its response once
    the result is stored."""

    __slots__ = ("key", "request", "trace", "response")

    def __init__(self, key: str, request: Any, trace: Trace):
        self.key = key
        self.request = request
        self.trace = trace
        self.response: Any = None


class ContentAddressedService(Generic[Req, Resp]):
    """Batching, caching and pooling over one pure request → response path.

    The constructor parameters are those of both services (see
    :class:`~repro.service.SchedulingService` for each one's meaning).  At
    most one of ``cache_dir``, ``cache_backend`` and ``cache`` may be given;
    the service owns — and :meth:`close` releases — a worker pool it created
    and a backend it opened from a spec string, never a borrowed
    ``executor`` or a passed-in ``cache``.
    """

    #: Value of the ``kind`` label on this service's registry metrics.
    METRICS_KIND = ""
    #: The request and response classes; cached results are rebuilt with
    #: ``RESPONSE_CLS.from_result_dict``.
    REQUEST_CLS: Any = None
    RESPONSE_CLS: Any = None
    #: The cache class a service creates, and the namespace a backend spec
    #: string opens for it.
    CACHE_CLS: Any = ScheduleCache
    CACHE_SUBDIR: Optional[str] = None
    #: Fields of a scenario-drawn request that a pooled job ships besides the
    #: scenario's content key (see :meth:`slim`).
    SLIM_FIELDS: Tuple[str, ...] = ()

    def __init__(
        self,
        *,
        n_workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_backend: Optional[Union[str, "CacheBackend"]] = None,
        cache: Any = CACHE_DEFAULT,
        executor: Optional[Executor] = None,
        chunksize: Optional[int] = None,
    ):
        if not isinstance(n_workers, int) or n_workers < 1:
            raise ValueError(f"n_workers must be a positive integer, got {n_workers!r}")
        if chunksize is not None and (not isinstance(chunksize, int) or chunksize < 1):
            raise ValueError(f"chunksize must be a positive integer, got {chunksize!r}")
        check_exclusive(
            cache_dir=cache_dir is not None,
            cache_backend=cache_backend is not None,
            cache=cache is not CACHE_DEFAULT,
        )
        self.n_workers = n_workers
        self.chunksize = chunksize
        #: This service's metrics: request counters, per-phase latency
        #: histograms and — for caches the service creates itself — the cache
        #: operation counters.  :meth:`metrics` merges in the registries of a
        #: separately created cache and of any service this one delegates to.
        self.registry = MetricsRegistry()
        self._owns_cache = isinstance(cache_backend, str)
        if cache_backend is not None:
            self.cache = self.CACHE_CLS(
                backend=create_backend(cache_backend, subdir=self.CACHE_SUBDIR),
                metrics=self.registry,
            )
        elif cache is CACHE_DEFAULT:
            self.cache = self.CACHE_CLS(cache_dir, metrics=self.registry)
        else:
            self.cache = cache
        self._executor: Optional[Executor] = executor
        self._owns_executor = executor is None
        #: Requests actually computed (cache misses) over this service's lifetime.
        self.computed = 0
        #: Phase breakdowns of the most recent :meth:`submit_stream` (or
        #: batch), one ``{"trace_id", "phases"}`` dict per answered request
        #: in request order.
        self.last_traces: List[Dict[str, Any]] = []

    # -- what a subclass supplies ------------------------------------------------

    def execute(self, request: Req) -> Resp:
        """Execute one request in this process; pure in the request's content.

        The response carries no cache provenance (``cache="disabled"``);
        :meth:`submit_stream` stamps hit/miss status and the content key.
        """
        raise NotImplementedError

    def pool_context(self, requests: List[Req]) -> Tuple[Any, List[Any]]:
        """What pooled jobs need besides their requests: one picklable value
        for the whole batch and one ``extra`` per job (``None`` by default)."""
        return None, [None] * len(requests)

    @staticmethod
    def open_worker(context: Any) -> ContextManager[Callable[[Any, Any], Any]]:
        """Set up one chunk in a pool worker from :meth:`pool_context`'s
        batch value; yields ``run(request, extra) -> response``."""
        raise NotImplementedError

    @classmethod
    def slim(cls, request: Req, scenarios: Dict[str, Any]) -> Tuple[Any, ...]:
        """One request as a pool payload; fills the chunk's ``scenarios`` table.

        A request drawn from a scenario ships its :attr:`SLIM_FIELDS` plus
        the scenario's content key — the envelope itself goes into the
        chunk's shared ``scenarios`` table exactly once, however many jobs
        of the chunk reference it.  A request with an explicit task set
        ships whole (its pickled form is already slim: memoised task sets
        are dropped, the content key rides along).
        """
        if request.task_set is not None:
            return ("request", request)
        scenario_key = request.scenario.content_key()
        scenarios.setdefault(scenario_key, request.scenario)
        return ("scenario", scenario_key, *(getattr(request, name) for name in cls.SLIM_FIELDS))

    @classmethod
    def inflate(cls, entry: Tuple[Any, ...], scenarios: Dict[str, Any]) -> Req:
        """Rebuild the request :meth:`slim` packed.

        The rebuilt request is content-identical to the dispatcher's
        (scenario envelopes are shared values), which is what keeps pooled
        responses byte-identical to serial execution.
        """
        if entry[0] == "request":
            return entry[1]
        return cls.REQUEST_CLS(
            scenario=scenarios[entry[1]], **dict(zip(cls.SLIM_FIELDS, entry[2:]))
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut down an owned pool and close a backend opened from a spec string."""
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown()
            self._executor = None
        if self._owns_cache and self.cache is not None:
            self.cache.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _get_executor(self) -> Executor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._executor

    # -- the API -----------------------------------------------------------------

    def submit(self, request: Req) -> Resp:
        """Execute one request (through the cache)."""
        return self.submit_batch([request])[0]

    def submit_batch(self, requests: Iterable[Req]) -> List[Resp]:
        """Execute a batch; the responses of :meth:`submit_stream`, as a list."""
        return list(self.submit_stream(requests))

    def submit_stream(
        self, requests: Iterable[Req], *, scalars_only: bool = False
    ) -> Iterator[Resp]:
        """Execute requests as they arrive; yields responses in request order.

        Requests are read in windows of :data:`STREAM_WINDOW`, and one batched
        cache lookup answers a window.  Each distinct content key is computed
        at most once: a key repeated inside a window, or one whose leader an
        earlier window is still computing, waits for that leader.  Each
        response's ``cache`` field records what happened
        (``hit``/``miss``/``disabled``).  Without a cache, only repeats inside
        one window share a computation.

        Every result is stored before it is yielded.  Serially the stream runs
        and stores one request at a time.  On a pool it keeps about
        ``2 * n_workers`` chunks in flight, stores each chunk with one
        ``put_many`` as it finishes, and admits the next window as soon as a
        chunk slot frees up, so no window end waits for the slowest worker.
        An abandoned stream (an interrupt, a consumer that stops) loses only
        the chunks still in flight.  Once a window is answered, the cache
        keeps no in-process copy of the entries its backend holds, so memory
        stays bounded however long the stream runs.

        Per-request phase breakdowns land in :attr:`last_traces` and the
        phase latency histograms of :attr:`registry`; responses carry none of
        it.

        ``scalars_only`` is for a caller that reads only a response's scalar
        fields, such as a campaign journal: each window's lookup leaves the
        response class's mapping fields (``per_device``, ``trace``) out of
        what it reads from the store, so a hit carries empty mappings.
        Computed answers stay whole, and so do hit and miss counts.
        """
        requests = iter(requests)
        self.last_traces = []
        omit = (
            tuple(name for name, coerce in self.RESPONSE_CLS._result_fields() if coerce is dict)
            if scalars_only
            else ()
        )
        pooled = self.n_workers > 1
        limit = 2 * self.n_workers
        chunksize = self.chunksize or max(1, STREAM_WINDOW // limit)
        # Admitted positions not yet yielded, in request order.
        order: Deque[Tuple[Req, str, Trace, Any, Optional[str], Optional[List[str]]]] = deque()
        # Keys this stream computes whose results are not stored yet.
        unstored: Dict[str, _Job] = {}
        running: Dict[Future, List[_Job]] = {}
        queued: Deque[List[_Job]] = deque()
        exhausted = False
        try:
            while True:
                while not exhausted and (
                    not queued and len(running) < limit and len(order) < 2 * STREAM_WINDOW
                    if pooled
                    else not order
                ):
                    window = list(islice(requests, STREAM_WINDOW))
                    exhausted = len(window) < STREAM_WINDOW
                    jobs = self._admit(window, order, unstored, omit) if window else []
                    # A stream's only miss runs in this process, as it would
                    # serially: a pool round trip costs more than it saves.
                    if jobs and pooled and (running or not exhausted or len(jobs) > 1):
                        queued.extend(
                            jobs[start : start + chunksize]
                            for start in range(0, len(jobs), chunksize)
                        )
                while queued and len(running) < limit:
                    chunk = queued.popleft()
                    running[self._submit_chunk(chunk)] = chunk
                if not order:
                    return
                request, key, trace, source, status, answered = order[0]
                if isinstance(source, _Job) and source.response is None:
                    # Queued chunks were just submitted, so a pending job with
                    # nothing running is one this process runs itself.
                    if running:
                        self._harvest(running, unstored)
                    else:
                        self._run_inline(source, unstored)
                    continue
                order.popleft()
                if isinstance(source, _Job) and status is not None:
                    response = replace(
                        source.response,
                        request_id=request.request_id,
                        cache=status,
                        cache_key=key,
                    )
                else:
                    # A cached entry, or (status None) the stored result of a
                    # leader from an earlier window: read back as a hit.
                    cached = source if status is not None else self.cache.get(key)
                    response = self.RESPONSE_CLS.from_result_dict(
                        cached, request_id=request.request_id, cache=CACHE_HIT, cache_key=key
                    )
                self.registry.counter_inc(
                    REQUESTS_TOTAL,
                    help="Requests answered, by kind and cache status.",
                    kind=self.METRICS_KIND,
                    cache=response.cache,
                )
                self.last_traces.append(trace.to_dict())
                if answered is not None:
                    if self.cache is not None:
                        self.cache.clear_memory(answered)
                    # Serial executions ran memo caches in this process; fold
                    # their deltas in (pooled chunks shipped theirs already).
                    drain_memo_metrics(self.registry)
                yield response
        finally:
            for future in running:
                future.cancel()

    def _admit(
        self, requests: List[Req], order, unstored: Dict[str, _Job], omit: Tuple[str, ...]
    ) -> List[_Job]:
        """Look up one window, without the result fields ``omit`` names, and
        append its positions to ``order``; returns the jobs the window adds,
        in first-seen order.

        The lookup skips keys whose leader is still unstored: those positions
        read the stored result back when their turn comes, which counts the
        hit a serial stream would have counted.  Hit/miss statistics count
        per position, and each position's trace carries an equal share of
        the lookup.
        """
        keys = [request.content_key() for request in requests]
        started = time.monotonic()
        found = (
            self.cache.get_many([key for key in keys if key not in unstored], omit=omit)
            if self.cache is not None
            else {}
        )
        share = (time.monotonic() - started) / len(requests)
        jobs: Dict[str, _Job] = {}
        for position, (request, key) in enumerate(zip(requests, keys)):
            trace = Trace()
            trace.add_phase(PHASE_CACHE_LOOKUP, share)
            observe_phases(self.registry, self.METRICS_KIND, trace.phases[-1:])
            source: Any = found.get(key)
            status: Optional[str] = CACHE_HIT
            if source is None:
                source = unstored.get(key)
                if source is not None:
                    status = None
                elif key in jobs:
                    source = jobs[key]
                    status = CACHE_DISABLED if self.cache is None else CACHE_HIT
                else:
                    source = jobs[key] = _Job(key, request, trace)
                    status = CACHE_DISABLED if self.cache is None else CACHE_MISS
            # The window's last position carries its keys: answering it
            # answers the window.
            answered = keys if position == len(keys) - 1 else None
            order.append((request, key, trace, source, status, answered))
        if self.cache is not None:
            unstored.update(jobs)
        return list(jobs.values())

    def _run_inline(self, job: _Job, unstored: Dict[str, _Job]) -> None:
        """Execute one job in this process and store its result."""
        before = len(job.trace.phases)
        with activate(job.trace):
            job.response = self.execute(job.request)
        observe_phases(self.registry, self.METRICS_KIND, job.trace.phases[before:])
        self.computed += 1
        self._store([job], unstored)

    def _harvest(self, running: Dict[Future, List[_Job]], unstored) -> None:
        """Wait for at least one running chunk; store every finished one.

        Raises what a finished chunk raised.
        """
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in [future for future in running if future in done]:
            jobs = running.pop(future)
            outcomes, snapshot = future.result()
            # The worker already observed its phases (queue-wait and compute)
            # into the shipped snapshot; merging it here is what makes pooled
            # totals equal serial totals.
            self.registry.merge(snapshot)
            for job, (response, trace_dict) in zip(jobs, outcomes):
                job.trace.phases.extend(trace_dict["phases"])
                job.response = response
            self.computed += len(jobs)
            self._store(jobs, unstored)

    def _store(self, jobs: List[_Job], unstored: Dict[str, _Job]) -> None:
        """Persist finished jobs in one batched write (one SQLite
        transaction); each job's trace takes an equal share of the store."""
        if self.cache is None:
            return
        started = time.monotonic()
        self.cache.put_many([(job.key, job.response.result_dict()) for job in jobs])
        share = (time.monotonic() - started) / len(jobs)
        for job in jobs:
            job.trace.add_phase(PHASE_STORE, share)
            observe_phases(self.registry, self.METRICS_KIND, job.trace.phases[-1:])
            unstored.pop(job.key, None)

    def _submit_chunk(self, jobs: List[_Job]) -> Future:
        """Ship jobs to the pool as one chunk; each distinct scenario
        envelope crosses the process boundary once per chunk, not once per
        job."""
        submitted = time.monotonic()
        context, extras = self.pool_context([job.request for job in jobs])
        scenarios: Dict[str, Any] = {}
        entries = [
            (self.slim(job.request, scenarios), job.key, job.trace.trace_id, extra)
            for job, extra in zip(jobs, extras)
        ]
        return self._get_executor().submit(
            execute_chunk, (type(self), context, scenarios, entries, submitted)
        )

    # -- the serving daemon's per-request path -----------------------------------

    def execute_in_pool(self, request: Req) -> "Future[Tuple[Resp, Dict[str, Any], Dict[str, Any]]]":
        """Submit one request to the worker pool as a chunk of one.

        This is the *awaitable unit* of request execution: no cache lookup,
        no provenance stamping.  The future resolves to ``(response,
        trace_dict, registry_snapshot)``; the serving daemon's dispatcher
        merges the snapshot into its registry and layers cache and in-flight
        dedup on top (through :meth:`lookup` and :meth:`store`).
        Synchronous callers should prefer :meth:`submit`.
        """
        chunk = self._submit_chunk([_Job(request.content_key(), request, Trace())])
        single: Future = Future()

        def unpack(done: Future) -> None:
            try:
                [(response, trace)], snapshot = done.result()
            except BaseException as error:  # re-raised by single.result()
                single.set_exception(error)
            else:
                single.set_result((response, trace, snapshot))

        chunk.add_done_callback(unpack)
        return single

    def lookup(self, request: Req) -> Optional[Resp]:
        """The cached answer to ``request`` stamped ``hit``, or ``None``
        (one per-key cache lookup; ``None`` without a cache).

        The answer carries its :attr:`result_text
        <repro.service.messages.ResponseEnvelope.result_text>`, which the
        cache renders on the key's first hit and keeps with the entry, so a
        daemon encodes each stored result once, not once per hit.
        """
        if self.cache is None:
            return None
        key = request.content_key()
        cached = self.cache.get(key)
        if cached is None:
            return None
        response = self.RESPONSE_CLS.from_result_dict(
            cached, request_id=request.request_id, cache=CACHE_HIT, cache_key=key
        )
        text = self.cache.text(key, lambda: json.dumps(response.result_dict(), sort_keys=True))
        object.__setattr__(response, "_result_text", text)
        return response

    def store(self, key: str, response: Resp) -> None:
        """Cache a response computed through :meth:`execute_in_pool` (one
        per-key store; a no-op without a cache).  Raises what the cache
        raises, e.g. ``OSError`` from a full disk."""
        if self.cache is not None:
            self.cache.put(key, response.result_dict())

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Lifetime counters: requests computed plus cache hit/miss/store totals.

        ``cache_backend`` describes where cache entries persist (backend name,
        location, entry count, size) — ``{"name": "memory"}`` when the cache
        only lives in this process.
        """
        stats: Dict[str, Any] = {"computed": self.computed}
        if self.cache is not None:
            cache_stats = self.cache.stats()
            stats.update(
                cache_entries=cache_stats["entries"],
                cache_hits=cache_stats["hits"],
                cache_misses=cache_stats["misses"],
                cache_stores=cache_stats["stores"],
                cache_backend=cache_stats["backend"],
            )
        return stats

    def metrics_registries(self) -> List[MetricsRegistry]:
        """Every distinct registry this service's metrics live on."""
        registries = [self.registry]
        if self.cache is not None:
            registries.append(self.cache.registry)
        return distinct_registries(registries)

    def metrics(self) -> Dict[str, Any]:
        """Merged snapshot of this service's metrics (counters + histograms)."""
        return merge_snapshots(
            registry.snapshot() for registry in self.metrics_registries()
        )
