"""Wire protocol of the serving daemon: one JSON envelope per line.

The protocol is deliberately the thinnest possible layer over the formats the
batch CLIs already speak: every line is one versioned ``{kind, version,
data}`` payload (UTF-8 JSON, terminated by ``\\n``), and the *result* payloads
travelling inside it are byte-for-byte the ``repro/schedule-response`` /
``repro/sim-response`` envelopes of :mod:`repro.service` and
:mod:`repro.runtime`.  A consumer that can read the batch CLIs' JSONL output
can read the daemon's answers unchanged.

Three envelope kinds exist on the wire:

``repro/server-request``
    ``data = {op, tag?, payload?}``.  ``op`` is one of :data:`OPS` —
    ``schedule`` and ``simulate`` carry the corresponding request envelope in
    ``payload``; ``stats``, ``health`` and ``shutdown`` take none.  ``tag``
    is free-form client correlation, echoed verbatim on the answer (requests
    on one connection may complete out of order).
``repro/server-response``
    ``data = {op, tag, payload}`` — the successful answer.
``repro/server-error``
    ``data = {tag, error, message, retry_after_s?}`` — the structured error
    answer.  ``error`` is a stable machine-readable code (:data:`ERROR_CODES`);
    ``retry_after_s`` accompanies :data:`ERR_OVERLOADED` as the admission
    controller's back-off hint.

For convenience a bare ``repro/schedule-request`` / ``repro/sim-request``
envelope is also accepted as a line of its own — the op is implied by the
kind and the request's ``id`` doubles as the tag — so existing request JSONL
files can be piped to a daemon verbatim.

Framing is handled by :class:`FrameDecoder`, which enforces a maximum line
length (an oversized line yields an :class:`OversizedFrame` and the decoder
resynchronises at the next newline instead of buffering without bound), and
parsing by :func:`decode_request_line`, which maps every malformed input to a
:class:`ProtocolError` carrying the error code the daemon answers with —
a bad line is *always* a structured error response, never a crash or a
silent drop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.runtime.messages import SIM_REQUEST_KIND
from repro.service.messages import REQUEST_KIND as SCHEDULE_REQUEST_KIND

SERVER_REQUEST_KIND = "repro/server-request"
SERVER_REQUEST_VERSION = 1
SERVER_RESPONSE_KIND = "repro/server-response"
SERVER_RESPONSE_VERSION = 1
SERVER_ERROR_KIND = "repro/server-error"
SERVER_ERROR_VERSION = 1

#: Operations a server request can carry.
OP_SCHEDULE = "schedule"
OP_SIMULATE = "simulate"
OP_STATS = "stats"
OP_HEALTH = "health"
OP_METRICS = "metrics"
OP_SHUTDOWN = "shutdown"
OPS = (OP_SCHEDULE, OP_SIMULATE, OP_STATS, OP_HEALTH, OP_METRICS, OP_SHUTDOWN)

#: Ops that must carry a request payload.
PAYLOAD_OPS = (OP_SCHEDULE, OP_SIMULATE)
#: Request-envelope kind -> the op that executes it.
OP_BY_KIND = {SCHEDULE_REQUEST_KIND: OP_SCHEDULE, SIM_REQUEST_KIND: OP_SIMULATE}

#: Stable machine-readable error codes of ``repro/server-error`` envelopes.
ERR_INVALID_JSON = "invalid-json"
ERR_OVERSIZED_LINE = "oversized-line"
ERR_UNKNOWN_KIND = "unknown-kind"
ERR_UNKNOWN_OP = "unknown-op"
ERR_VERSION_MISMATCH = "version-mismatch"
ERR_INVALID_REQUEST = "invalid-request"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_INTERNAL = "internal"
ERROR_CODES = (
    ERR_INVALID_JSON,
    ERR_OVERSIZED_LINE,
    ERR_UNKNOWN_KIND,
    ERR_UNKNOWN_OP,
    ERR_VERSION_MISMATCH,
    ERR_INVALID_REQUEST,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_INTERNAL,
)

#: Default maximum accepted line length (requests *and* responses comfortably
#: fit paper-scale task sets; a daemon can be configured differently).
DEFAULT_MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A wire-level violation, carrying the error code to answer with."""

    def __init__(self, code: str, message: str, *, tag: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.tag = tag


@dataclass(frozen=True)
class ServerRequest:
    """One decoded request line: the op to perform, on which payload."""

    op: str
    tag: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class OversizedFrame:
    """Marker frame: a line exceeded the decoder's maximum length."""

    length: int


Frame = Union[bytes, OversizedFrame]


class FrameDecoder:
    """Incremental newline framing with a hard per-line size limit.

    Feed raw socket chunks in; complete lines (without the trailing newline)
    come out.  A line longer than ``max_line_bytes`` is *not* buffered: the
    decoder discards it as it streams past, emits one :class:`OversizedFrame`
    when its newline finally arrives, and resynchronises on the next line —
    so one misbehaving client line can neither exhaust daemon memory nor
    desynchronise the rest of the connection.
    """

    def __init__(self, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES):
        if max_line_bytes < 1:
            raise ValueError(f"max_line_bytes must be positive, got {max_line_bytes}")
        self.max_line_bytes = max_line_bytes
        self._buffer = bytearray()
        self._discarding = 0  # bytes of the current oversized line dropped so far

    def feed(self, data: bytes) -> List[Frame]:
        """Decode ``data``; returns the frames it completed."""
        frames: List[Frame] = []
        self._buffer.extend(data)
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if self._discarding:
                    # Still inside an oversized line: keep dropping.
                    self._discarding += len(self._buffer)
                    self._buffer.clear()
                elif len(self._buffer) > self.max_line_bytes:
                    self._discarding = len(self._buffer)
                    self._buffer.clear()
                break
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if self._discarding:
                frames.append(OversizedFrame(self._discarding + len(line)))
                self._discarding = 0
            elif len(line) > self.max_line_bytes:
                frames.append(OversizedFrame(len(line)))
            else:
                frames.append(line)
        return frames


# -- encoding ------------------------------------------------------------------


def _encode(kind: str, version: int, data: Dict[str, Any]) -> bytes:
    payload = {"kind": kind, "version": version, "data": data}
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def encode_request(
    op: str, *, tag: Optional[str] = None, payload: Optional[Dict[str, Any]] = None
) -> bytes:
    """One ``repro/server-request`` line."""
    data: Dict[str, Any] = {"op": op}
    if tag is not None:
        data["tag"] = tag
    if payload is not None:
        data["payload"] = payload
    return _encode(SERVER_REQUEST_KIND, SERVER_REQUEST_VERSION, data)


def encode_response(op: str, tag: Optional[str], payload: Dict[str, Any]) -> bytes:
    """One ``repro/server-response`` line."""
    return _encode(
        SERVER_RESPONSE_KIND,
        SERVER_RESPONSE_VERSION,
        {"op": op, "tag": tag, "payload": payload},
    )


def encode_error(
    tag: Optional[str],
    code: str,
    message: str,
    *,
    retry_after_s: Optional[float] = None,
) -> bytes:
    """One ``repro/server-error`` line."""
    data: Dict[str, Any] = {"tag": tag, "error": code, "message": message}
    if retry_after_s is not None:
        data["retry_after_s"] = retry_after_s
    return _encode(SERVER_ERROR_KIND, SERVER_ERROR_VERSION, data)


# -- decoding ------------------------------------------------------------------


def _tag_of(value: Any) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, str):
        return value
    raise ProtocolError(ERR_INVALID_REQUEST, f"tag must be a string, got {value!r}")


def decode_request_line(line: bytes) -> ServerRequest:
    """Parse one request line into a :class:`ServerRequest`.

    Raises :class:`ProtocolError` — carrying the error code and, when the
    line was parseable enough to contain one, the client's tag — for every
    malformed input: invalid JSON, an unknown envelope kind, a wrapper
    version this server does not speak, an unknown op, or a missing payload.
    The *inner* request envelope is deliberately not validated here; the
    dispatcher parses it (so its version/validation errors are reported
    against the correct tag).
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(ERR_INVALID_JSON, f"invalid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            ERR_INVALID_JSON, f"expected a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind == SERVER_REQUEST_KIND:
        data = payload.get("data")
        if not isinstance(data, dict):
            raise ProtocolError(ERR_INVALID_REQUEST, "server-request data must be an object")
        tag = _tag_of(data.get("tag"))
        version = payload.get("version")
        if not isinstance(version, int) or version < 1:
            raise ProtocolError(
                ERR_VERSION_MISMATCH,
                f"invalid server-request version {version!r}",
                tag=tag,
            )
        if version > SERVER_REQUEST_VERSION:
            raise ProtocolError(
                ERR_VERSION_MISMATCH,
                f"server-request version {version} is newer than this server "
                f"understands (<= {SERVER_REQUEST_VERSION})",
                tag=tag,
            )
        op = data.get("op")
        if op not in OPS:
            raise ProtocolError(
                ERR_UNKNOWN_OP, f"unknown op {op!r} (expected one of {', '.join(OPS)})", tag=tag
            )
        request_payload = data.get("payload")
        if op in PAYLOAD_OPS:
            if not isinstance(request_payload, dict):
                raise ProtocolError(
                    ERR_INVALID_REQUEST, f"op {op!r} requires a payload object", tag=tag
                )
        else:
            request_payload = None
        return ServerRequest(op=op, tag=tag, payload=request_payload)
    op = OP_BY_KIND.get(kind) if isinstance(kind, str) else None
    if op is None:
        raise ProtocolError(ERR_UNKNOWN_KIND, f"unknown envelope kind {kind!r}")
    data = payload.get("data")
    tag = _tag_of(data.get("id")) if isinstance(data, dict) else None
    return ServerRequest(op=op, tag=tag, payload=payload)


def decode_answer_line(line: bytes) -> Dict[str, Any]:
    """Parse one answer line (client side); returns the raw envelope dict.

    Accepts ``repro/server-response`` and ``repro/server-error`` envelopes;
    anything else raises :class:`ProtocolError` (the daemon never sends
    other kinds).
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(ERR_INVALID_JSON, f"invalid JSON from server: {error}")
    if not isinstance(payload, dict) or payload.get("kind") not in (
        SERVER_RESPONSE_KIND,
        SERVER_ERROR_KIND,
    ):
        raise ProtocolError(
            ERR_UNKNOWN_KIND, f"unexpected answer from server: {payload!r:.200}"
        )
    return payload
