"""The serving daemon: one warm service pair behind a TCP line protocol.

:class:`ReproServer` owns exactly one :class:`~repro.service.SchedulingService`
and one :class:`~repro.runtime.SimulationService` — sharing a single worker
pool and, when a cache directory is given, the same on-disk caches as the
batch CLIs (``<cache_dir>/schedules/`` + ``<cache_dir>/sim-responses/``) — and
serves them over newline-delimited JSON on a TCP socket.  The daemon
amortises what the batch CLIs pay per invocation: pool spin-up, cache
loading, interpreter start.

Per connection, requests are handled concurrently (each request line becomes
a task; answers carry the request's ``tag`` precisely because they may
complete out of order).  Policy — admission control, cross-request dedup,
drain — lives in the :class:`~repro.server.dispatcher.Dispatcher`; this
module only does sockets, framing and lifecycle:

* a malformed line is answered with a ``repro/server-error`` envelope and the
  connection keeps going — a bad client request can never crash the daemon
  or silently vanish;
* shutdown (the ``shutdown`` op, :meth:`ReproServer.request_shutdown`, or a
  signal wired to it) is *graceful*: the listener closes, in-flight work
  drains to completion and every pending answer is flushed before the
  process lets go of its pool.

:class:`ThreadedServer` runs a daemon on a background thread of the current
process — the form the tests and benchmarks use, and a convenient way to
embed a server in a notebook or driver script.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.memo import LRUMemo
from repro.core.serialization import PayloadVersionError
from repro.obs.expo import render
from repro.obs.metrics import (
    SERVER_CONNECTIONS_OPEN,
    SERVER_CONNECTIONS_TOTAL,
    SERVER_QUEUE_DEPTH,
    SERVER_UPTIME_SECONDS,
    MetricsRegistry,
    merge_snapshots,
)
from repro.runtime.messages import SimulationRequest
from repro.runtime.service import SimulationService
from repro.server.dispatcher import (
    DEFAULT_MAX_QUEUE,
    Dispatcher,
    Draining,
    Overloaded,
)
from repro.server.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    ERR_INTERNAL,
    ERR_INVALID_REQUEST,
    ERR_OVERLOADED,
    ERR_OVERSIZED_LINE,
    ERR_SHUTTING_DOWN,
    ERR_VERSION_MISMATCH,
    OP_HEALTH,
    OP_METRICS,
    OP_SCHEDULE,
    OP_SHUTDOWN,
    OP_SIMULATE,
    OP_STATS,
    FrameDecoder,
    OversizedFrame,
    ProtocolError,
    ServerRequest,
    decode_request_line,
    encode_error,
    encode_response,
)
from repro.service.core import check_exclusive, distinct_registries
from repro.service.messages import ScheduleRequest
from repro.service.service import SchedulingService
from repro.store import SCHEDULE_CACHE_SUBDIR, SIM_CACHE_SUBDIR

DEFAULT_HOST = "127.0.0.1"
_READ_CHUNK = 1 << 16
#: Distinct request payloads a daemon keeps parsed (see
#: :meth:`ReproServer._parse_payload`).
PARSED_PAYLOADS = 1024


class ReproServer:
    """A persistent scheduling/simulation server over asyncio TCP.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port; the bound port
        is available as :attr:`port` once :meth:`start` has run (and is
        written to ``port_file`` when given, for launcher scripts).
    n_workers:
        Worker-pool size shared by scheduling and simulation.
    cache_dir:
        Root of the on-disk caches, in the exact layout of the batch CLIs
        (``schedules/`` + ``sim-responses/`` beneath it).  ``None`` serves
        from memory only.
    cache_backend:
        Storage-backend spec string for the persistent caches instead of
        ``cache_dir`` — e.g. ``sqlite:path=cache.db`` keeps both caches in
        one SQLite file (see :mod:`repro.store`).  Conflicts with
        ``cache_dir``.
    max_queue:
        Admission bound — at most this many computations queued or running
        before requests are rejected with a retry-after hint.
    max_line_bytes:
        Per-line frame limit of the wire protocol.
    scheduling, simulation:
        Pre-built services to serve (both or neither).  When given, the
        caller keeps ownership (the daemon will not close them); when
        omitted the daemon builds its own pair sharing one pool and closes
        them on shutdown.
    allow_remote_shutdown:
        Whether the wire-level ``shutdown`` op is honoured.  On by default —
        the daemon binds loopback unless told otherwise, and driver scripts
        (CI, benchmarks) want to stop the server they started; disable it
        when exposing a shared daemon more widely.
    """

    def __init__(
        self,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        n_workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_backend: Optional[str] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        scheduling: Optional[SchedulingService] = None,
        simulation: Optional[SimulationService] = None,
        allow_remote_shutdown: bool = True,
        port_file: Optional[Union[str, Path]] = None,
    ):
        if (scheduling is None) != (simulation is None):
            raise ValueError("pass both scheduling and simulation services, or neither")
        check_exclusive(
            cache_dir=cache_dir is not None, cache_backend=cache_backend is not None
        )
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self.allow_remote_shutdown = allow_remote_shutdown
        self.port_file = Path(port_file) if port_file is not None else None
        self._owns_services = scheduling is None
        if scheduling is None:
            root = Path(cache_dir) if cache_dir is not None else None
            scheduling = SchedulingService(
                n_workers=n_workers,
                cache_dir=str(root / SCHEDULE_CACHE_SUBDIR) if root else None,
                cache_backend=cache_backend,
            )
            # One pool for both services: simulation jobs and scheduling jobs
            # are the same kind of CPU-bound pure work, and a single warm
            # pool is the whole point of the daemon.
            simulation = SimulationService(
                n_workers=n_workers,
                cache_dir=str(root / SIM_CACHE_SUBDIR) if root else None,
                cache_backend=cache_backend,
                scheduling=scheduling,
                executor=scheduling._get_executor(),
            )
        self.scheduling = scheduling
        self.simulation = simulation
        #: The daemon's own registry: dispatcher counters, worker-shipped
        #: phase histograms, and the scrape-time server gauges.  The
        #: ``metrics`` RPC merges it with the services' registries.
        self.registry = MetricsRegistry()
        self.dispatcher = Dispatcher(
            scheduling=self.scheduling,
            simulation=self.simulation,
            max_queue=max_queue,
            metrics=self.registry,
        )
        #: Parsed request envelopes, by request class and payload text.
        self._parsed = LRUMemo("parsed-payloads", PARSED_PAYLOADS)
        self.protocol_errors = 0
        self.connections_total = 0
        self._connections_open = 0
        self._started_monotonic: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._request_tasks: "set[asyncio.Task]" = set()
        self._connection_tasks: "set[asyncio.Task]" = set()
        self._writers: "set[asyncio.StreamWriter]" = set()
        #: Set once the socket is bound and :attr:`port` is final (threadsafe).
        self.started = threading.Event()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        if self.port_file is not None:
            self.port_file.write_text(f"{self.port}\n", encoding="utf-8")
        self.started.set()

    async def run(self) -> None:
        """Serve until shutdown is requested, then drain and close."""
        await self.start()
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self._shutdown()

    def request_shutdown(self) -> None:
        """Ask a running server to shut down gracefully (any-thread safe)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            # The loop already closed: the server shut down on its own (e.g.
            # through an in-band shutdown RPC) and there is nothing to stop.
            pass

    async def _shutdown(self) -> None:
        # Refuse new computations first, then stop accepting connections,
        # then let everything already admitted finish and flush.
        self.dispatcher.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.dispatcher.drain()
        if self._request_tasks:
            await asyncio.gather(*tuple(self._request_tasks), return_exceptions=True)
        # Every pending answer is flushed; now hang up on idle connections
        # (their handlers see EOF and finish) and wait for them to wind down,
        # so nothing is left for the event loop to cancel abruptly.
        for writer in tuple(self._writers):
            writer.close()
        if self._connection_tasks:
            await asyncio.wait(tuple(self._connection_tasks), timeout=5)
        if self._owns_services:
            # The simulation service shares the scheduling service's pool
            # (and does not own it); closing the scheduling service last
            # tears the pool down exactly once.
            self.simulation.close()
            self.scheduling.close()

    # -- connections -------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_total += 1
        self._connections_open += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self._writers.add(writer)
        decoder = FrameDecoder(self.max_line_bytes)
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    task = asyncio.ensure_future(
                        self._handle_frame(frame, writer, write_lock)
                    )
                    tasks.add(task)
                    self._request_tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    task.add_done_callback(self._request_tasks.discard)
            # EOF: the client is done sending; finish answering what it sent.
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections_open -= 1
            self._writers.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_frame(
        self, frame, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            answer = await self._answer(frame)
        except Exception as error:  # a bug, but the daemon must keep serving
            self.protocol_errors += 1
            answer = encode_error(None, ERR_INTERNAL, f"{type(error).__name__}: {error}")
        async with write_lock:
            try:
                writer.write(answer)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # client went away; the work (and the cache) stay warm

    async def _answer(self, frame) -> bytes:
        """Map one frame to exactly one answer line (response or error)."""
        if isinstance(frame, OversizedFrame):
            self.protocol_errors += 1
            return encode_error(
                None,
                ERR_OVERSIZED_LINE,
                f"line of {frame.length} bytes exceeds the "
                f"{self.max_line_bytes}-byte limit",
            )
        try:
            request = decode_request_line(frame)
        except ProtocolError as error:
            self.protocol_errors += 1
            return encode_error(error.tag, error.code, error.message)
        return await self._answer_request(request)

    async def _answer_request(self, request: ServerRequest) -> bytes:
        op, tag = request.op, request.tag
        try:
            if op == OP_SCHEDULE:
                schedule_request = self._parse_payload(
                    ScheduleRequest, request.payload, tag=tag
                )
                response = await self.dispatcher.schedule(schedule_request)
                return encode_response(
                    op, tag, response.to_dict(), result_text=response.result_text
                )
            if op == OP_SIMULATE:
                sim_request = self._parse_payload(SimulationRequest, request.payload, tag=tag)
                response = await self.dispatcher.simulate(sim_request)
                return encode_response(
                    op, tag, response.to_dict(), result_text=response.result_text
                )
            if op == OP_STATS:
                return encode_response(op, tag, self.stats())
            if op == OP_HEALTH:
                return encode_response(op, tag, self.health())
            if op == OP_METRICS:
                return encode_response(op, tag, {"text": self.metrics_text()})
            assert op == OP_SHUTDOWN
            if not self.allow_remote_shutdown:
                self.protocol_errors += 1
                return encode_error(
                    tag, ERR_INVALID_REQUEST, "remote shutdown is disabled on this server"
                )
            self.request_shutdown()
            return encode_response(op, tag, {"status": "draining"})
        except ProtocolError as error:
            self.protocol_errors += 1
            return encode_error(error.tag, error.code, error.message)
        except Overloaded as error:
            return encode_error(
                tag,
                ERR_OVERLOADED,
                "admission queue full",
                retry_after_s=error.retry_after_s,
            )
        except Draining:
            return encode_error(tag, ERR_SHUTTING_DOWN, "server is shutting down")
        except Exception as error:  # execution failed; report, keep serving
            return encode_error(tag, ERR_INTERNAL, f"{type(error).__name__}: {error}")

    def _parse_payload(self, request_cls, payload, *, tag: Optional[str]):
        """Parse the inner request envelope, mapping failures to protocol errors.

        Each distinct payload is parsed once.  The request is kept, content
        key hashed, under the payload's JSON text without ``data.id``, in wire
        order, so two payloads that ``from_dict`` could tell apart never share
        one; each copy of the payload gets the request under its own ``id``.
        """
        data = payload.get("data")
        key = None
        if isinstance(data, dict):  # otherwise from_dict below names the fault
            key = (
                request_cls,
                json.dumps({**payload, "data": {k: v for k, v in data.items() if k != "id"}}),
            )
            parsed = self._parsed.get(key)
            if parsed is not None:
                return parsed.with_request_id(data.get("id"))
        try:
            parsed = request_cls.from_dict(payload)
        except PayloadVersionError as error:
            raise ProtocolError(ERR_VERSION_MISMATCH, str(error), tag=tag)
        except (ValueError, KeyError, TypeError) as error:
            raise ProtocolError(
                ERR_INVALID_REQUEST, f"invalid {request_cls.__name__}: {error}", tag=tag
            )
        parsed.content_key()
        self._parsed.put(key, parsed)
        return parsed

    # -- introspection -----------------------------------------------------------

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return round(time.monotonic() - self._started_monotonic, 3)

    def health(self) -> Dict[str, Any]:
        """Cheap liveness summary (the ``health`` op's payload)."""
        return {
            "status": "draining" if self.dispatcher.draining else "ok",
            "uptime_s": self.uptime_s(),
            "queue_depth": self.dispatcher.queue_depth,
            "pid": os.getpid(),
        }

    def stats(self) -> Dict[str, Any]:
        """Full live statistics (the ``stats`` op's payload)."""
        return {
            "server": {
                "uptime_s": self.uptime_s(),
                "pid": os.getpid(),
                "host": self.host,
                "port": self.port,
                "n_workers": self.scheduling.n_workers,
                "draining": self.dispatcher.draining,
                "connections_open": self._connections_open,
                "connections_total": self.connections_total,
                "protocol_errors": self.protocol_errors,
            },
            **self.dispatcher.stats(),
        }

    def metrics_registries(self) -> "list[MetricsRegistry]":
        """Every distinct registry behind this daemon, deduplicated by identity.

        The dispatcher shares :attr:`registry`; the two services contribute
        their own (and their caches', and the shared scheduling service's) —
        each exactly once, so merging can never double-count.
        """
        return distinct_registries(
            [
                self.registry,
                *self.scheduling.metrics_registries(),
                *self.simulation.metrics_registries(),
            ]
        )

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One merged snapshot of everything, server gauges set at scrape time."""
        self.registry.gauge_set(
            SERVER_UPTIME_SECONDS,
            self.uptime_s(),
            help="Seconds since the daemon bound its socket.",
        )
        self.registry.gauge_set(
            SERVER_QUEUE_DEPTH,
            self.dispatcher.queue_depth,
            help="Computations currently queued or running.",
        )
        self.registry.gauge_set(
            SERVER_CONNECTIONS_OPEN,
            self._connections_open,
            help="Open client connections.",
        )
        self.registry.gauge_set(
            SERVER_CONNECTIONS_TOTAL,
            self.connections_total,
            help="Client connections accepted over the daemon's lifetime.",
        )
        return merge_snapshots(
            registry.snapshot() for registry in self.metrics_registries()
        )

    def metrics_text(self) -> str:
        """The ``metrics`` op's payload: Prometheus text exposition."""
        return render(self.metrics_snapshot())


class ThreadedServer:
    """A :class:`ReproServer` running on a background thread.

    Context-manager form of the daemon for tests, benchmarks and embedding::

        with ThreadedServer(n_workers=2, cache_dir="cache") as server:
            client = ServerClient(server.host, server.port)
            ...

    Entering starts the event loop thread and blocks until the socket is
    bound (so :attr:`server.port <ReproServer.port>` is final); exiting
    requests graceful shutdown and joins the thread.
    """

    def __init__(self, server: Optional[ReproServer] = None, **kwargs):
        if server is not None and kwargs:
            raise ValueError("pass a server or its constructor arguments, not both")
        self.server = server if server is not None else ReproServer(**kwargs)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.server.run()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        if not self.server.started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None
