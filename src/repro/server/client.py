"""Client side of the serving daemon: sync + async, and service adapters.

:class:`ServerClient` is the synchronous client — one TCP connection, typed
helpers per op, and a windowed-pipelining batch engine
(:meth:`~ServerClient.submit_envelopes`) that keeps a bounded number of
requests in flight, matches out-of-order answers by tag, and transparently
waits out ``overloaded`` rejections using the server's ``retry_after_s``
hint.  :class:`AsyncServerClient` is its asyncio twin: any number of
concurrent ``await``-ed calls share one connection, demultiplexed by a
background reader task.

:class:`RemoteSchedulingService` / :class:`RemoteSimulationService` dress a
client connection up as the corresponding in-process service (``n_workers``,
``submit_stream``/``submit``/``submit_batch``, ``close``), so anything built
against the services — most notably :class:`~repro.campaign.CampaignRunner`
— can ride a warm daemon instead of spinning up its own pool, without
knowing the wire protocol exists.

Server-reported failures raise :class:`ServerError`, which carries the
structured error envelope's machine-readable ``code``.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.messages import (
    SimulationRequest,
    SimulationResponse,
)
from repro.server.protocol import (
    ERR_OVERLOADED,
    OP_BY_KIND,
    OP_HEALTH,
    OP_METRICS,
    OP_SCHEDULE,
    OP_SHUTDOWN,
    OP_SIMULATE,
    OP_STATS,
    SERVER_ERROR_KIND,
    decode_answer_line,
    encode_request,
)
from repro.service.messages import (
    ScheduleRequest,
    ScheduleResponse,
)

#: Default number of requests a batch keeps in flight on one connection.
DEFAULT_WINDOW = 32

#: Upper bound on honouring a single ``retry_after_s`` hint.
MAX_RETRY_SLEEP_S = 30.0


class ServerError(RuntimeError):
    """A structured error answer from the daemon.

    ``code`` is the machine-readable error code of the ``repro/server-error``
    envelope; ``retry_after_s`` is set for ``overloaded`` rejections.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        tag: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.tag = tag
        self.retry_after_s = retry_after_s

    @classmethod
    def from_data(cls, data: Dict[str, Any]) -> "ServerError":
        return cls(
            str(data.get("error", "internal")),
            str(data.get("message", "")),
            tag=data.get("tag"),
            retry_after_s=data.get("retry_after_s"),
        )


def op_for_envelope(envelope: Dict[str, Any]) -> str:
    """The op that executes a request envelope; ``ValueError`` for other kinds."""
    kind = envelope.get("kind") if isinstance(envelope, dict) else None
    op = OP_BY_KIND.get(kind) if isinstance(kind, str) else None
    if op is None:
        raise ValueError(
            f"cannot send envelope of kind {kind!r} to the server "
            f"(expected one of {', '.join(sorted(OP_BY_KIND))})"
        )
    return op


class ServerClient:
    """Synchronous client for one :class:`~repro.server.daemon.ReproServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        window: int = DEFAULT_WINDOW,
    ):
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.host = host
        self.port = port
        self.window = window
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One-line request/answer exchanges are latency-bound: don't let
        # Nagle batch them up.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------------

    def _next_tag(self) -> str:
        self._seq += 1
        return f"c{self._seq}"

    def _read_answer(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_answer_line(line)

    def call(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One op round-trip; returns the answer payload, raises on error."""
        tag = self._next_tag()
        self._sock.sendall(encode_request(op, tag=tag, payload=payload))
        envelope = self._read_answer()
        data = envelope["data"]
        if envelope["kind"] == SERVER_ERROR_KIND:
            raise ServerError.from_data(data)
        return data["payload"]

    # -- batches -----------------------------------------------------------------

    def submit_envelopes(
        self, envelopes: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Pipeline raw request envelopes; answers in input order.

        Each envelope must be a ``repro/schedule-request`` or
        ``repro/sim-request`` payload dict (exactly what the batch CLIs
        read).  At most :attr:`window` requests are outstanding at a time;
        ``overloaded`` rejections sleep out the server's ``retry_after_s``
        hint and requeue, every other error raises :class:`ServerError`.
        Returns the raw answer payloads — ``repro/schedule-response`` /
        ``repro/sim-response`` envelope dicts.
        """
        ops = [op_for_envelope(envelope) for envelope in envelopes]
        results: List[Optional[Dict[str, Any]]] = [None] * len(envelopes)
        queue = deque(range(len(envelopes)))
        outstanding: Dict[str, int] = {}
        while queue or outstanding:
            while queue and len(outstanding) < self.window:
                index = queue.popleft()
                tag = self._next_tag()
                outstanding[tag] = index
                self._sock.sendall(
                    encode_request(ops[index], tag=tag, payload=envelopes[index])
                )
            envelope = self._read_answer()
            data = envelope["data"]
            index = outstanding.pop(data.get("tag"), None)
            if index is None:
                raise ServerError.from_data(
                    data if envelope["kind"] == SERVER_ERROR_KIND else
                    {"error": "internal", "message": f"unmatched answer tag {data.get('tag')!r}"}
                )
            if envelope["kind"] == SERVER_ERROR_KIND:
                if data.get("error") == ERR_OVERLOADED:
                    # The admission queue is full: honour the back-off hint,
                    # then requeue this request for a later window slot.
                    time.sleep(
                        min(float(data.get("retry_after_s") or 0.1), MAX_RETRY_SLEEP_S)
                    )
                    queue.append(index)
                else:
                    raise ServerError.from_data(data)
            else:
                results[index] = data["payload"]
        return [result for result in results if result is not None]

    # -- typed helpers -----------------------------------------------------------

    def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        return ScheduleResponse.from_dict(self.call(OP_SCHEDULE, request.to_dict()))

    def simulate(self, request: SimulationRequest) -> SimulationResponse:
        return SimulationResponse.from_dict(self.call(OP_SIMULATE, request.to_dict()))

    def schedule_batch(
        self, requests: Sequence[ScheduleRequest]
    ) -> List[ScheduleResponse]:
        answers = self.submit_envelopes([request.to_dict() for request in requests])
        return [ScheduleResponse.from_dict(answer) for answer in answers]

    def simulate_batch(
        self, requests: Sequence[SimulationRequest]
    ) -> List[SimulationResponse]:
        answers = self.submit_envelopes([request.to_dict() for request in requests])
        return [SimulationResponse.from_dict(answer) for answer in answers]

    def stats(self) -> Dict[str, Any]:
        return self.call(OP_STATS)

    def health(self) -> Dict[str, Any]:
        return self.call(OP_HEALTH)

    def metrics(self) -> str:
        """The daemon's metrics in Prometheus text exposition format."""
        return self.call(OP_METRICS)["text"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit (requires remote shutdown enabled)."""
        return self.call(OP_SHUTDOWN)


class AsyncServerClient:
    """Asyncio client: concurrent calls multiplexed over one connection.

    Usage::

        async with await AsyncServerClient.connect(host, port) as client:
            first, second = await asyncio.gather(
                client.schedule(request_a), client.schedule(request_b)
            )

    A background reader task routes each answer line to the awaiting caller
    by tag, so any number of coroutines can have calls in flight at once.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._seq = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServerClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # -- lifecycle ---------------------------------------------------------------

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncServerClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- plumbing ----------------------------------------------------------------

    def _fail_pending(self, error: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
                future.exception()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._fail_pending(ConnectionError("server closed the connection"))
                    return
                envelope = decode_answer_line(line)
                tag = envelope["data"].get("tag")
                future = self._pending.pop(tag, None)
                if future is not None and not future.done():
                    future.set_result(envelope)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self._fail_pending(error)

    async def call(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One op round-trip; returns the answer payload, raises on error."""
        self._seq += 1
        tag = f"a{self._seq}"
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[tag] = future
        self._writer.write(encode_request(op, tag=tag, payload=payload))
        await self._writer.drain()
        envelope = await future
        data = envelope["data"]
        if envelope["kind"] == SERVER_ERROR_KIND:
            raise ServerError.from_data(data)
        return data["payload"]

    # -- typed helpers -----------------------------------------------------------

    async def schedule(self, request: ScheduleRequest) -> ScheduleResponse:
        return ScheduleResponse.from_dict(
            await self.call(OP_SCHEDULE, request.to_dict())
        )

    async def simulate(self, request: SimulationRequest) -> SimulationResponse:
        return SimulationResponse.from_dict(
            await self.call(OP_SIMULATE, request.to_dict())
        )

    async def stats(self) -> Dict[str, Any]:
        return await self.call(OP_STATS)

    async def health(self) -> Dict[str, Any]:
        return await self.call(OP_HEALTH)

    async def metrics(self) -> str:
        """The daemon's metrics in Prometheus text exposition format."""
        return (await self.call(OP_METRICS))["text"]

    async def shutdown(self) -> Dict[str, Any]:
        return await self.call(OP_SHUTDOWN)


# -- service adapters ----------------------------------------------------------


def parse_address(address: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` string (the campaign CLI's ``--server`` value)."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in {address!r}")
    if not (0 < port < 65536):
        raise ValueError(f"invalid port in {address!r}")
    return host, port


class RemoteSchedulingService:
    """A :class:`~repro.service.SchedulingService` look-alike over a daemon.

    Duck-types the surface :class:`~repro.campaign.CampaignRunner` (and
    similar drivers) use — ``n_workers``, ``submit_stream``, ``close``, plus
    ``submit``/``submit_batch`` and ``stats`` — so passing one as
    ``service=`` rides the daemon's warm pool and caches.  Caching/dedup
    happen server-side; ``cache`` is therefore ``None`` here.
    """

    _response_cls = ScheduleResponse

    def __init__(self, host: str, port: int, *, window: int = DEFAULT_WINDOW):
        self.client = ServerClient(host, port, window=window)
        self.cache = None
        self.n_workers = int(self.client.stats()["server"]["n_workers"])

    def submit(self, request):
        return self.submit_batch([request])[0]

    def submit_batch(self, requests) -> List[Any]:
        return list(self.submit_stream(requests))

    def submit_stream(self, requests) -> Iterator[Any]:
        """Answers in request order, pipelined two client windows at a time.

        Each stream window goes through :meth:`ServerClient.submit_envelopes`;
        the daemon caches every answer it computes, so a stream abandoned
        mid-window loses nothing the daemon finished.
        """
        requests = iter(requests)
        while True:
            window = list(islice(requests, 2 * self.client.window))
            if not window:
                return
            for answer in self.client.submit_envelopes(
                [request.to_dict() for request in window]
            ):
                yield self._response_cls.from_dict(answer)

    def stats(self) -> Dict[str, Any]:
        return self.client.stats()

    def close(self) -> None:
        self.client.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteSimulationService(RemoteSchedulingService):
    """A :class:`~repro.runtime.SimulationService` look-alike over a daemon."""

    _response_cls = SimulationResponse
