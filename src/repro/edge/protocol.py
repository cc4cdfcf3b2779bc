"""The edge wire protocol: NDJSON and binary frames, typed both ways.

Two wire formats share one port, negotiated by the **first byte** of a
connection: ``{`` opens the newline-delimited JSON protocol below;
:data:`BINARY_MAGIC` opens the length-prefixed binary frame protocol
(see *Binary frames*); anything else is HTTP.

In NDJSON form one connection carries a stream of JSON objects, one per
line.  Every client line is an *operation* (``op``) tagged with a
caller-chosen ``id``; every server line is the answer to exactly one
operation, echoing that ``id`` — so clients may pipeline freely and
match answers out of order.

Operations::

    {"v": 1, "id": "r1", "op": "read", "stack": 7, "request": {...}}
    {"id": "p1", "op": "ping"}
    {"id": "s1", "op": "stats"}
    {"id": "a1", "op": "admin.scale", "shards": 4, "token": "..."}

:data:`OPS` is the closed op vocabulary: each op's token gate, whether
it runs off the connection's line order, and its HTTP route.  The
``admin.*`` family (:data:`ADMIN_OPS`) is the control plane: shard
topology queries and reshapes, gated by the deployment's
``admin_token`` when one is configured.  Control ops ride every wire
the data ops do — NDJSON lines, binary frames (JSON body), and HTTP
(``GET`` or ``POST`` on :func:`http_path`).

``read`` carries one :class:`~repro.serve.requests.ReadRequest` in wire
form (see :func:`request_to_wire`); ``stack`` is the client-visible
stack id the router hashes onto a shard.  Deadlines travel as *relative*
``deadline_ms`` and are re-anchored against the shard worker's clock at
decode time (the two processes share no clock).

Answers::

    {"id": "r1", "ok": true, "shard": 2, "result": {...}}
    {"id": "r1", "ok": false, "error":
        {"code": "backpressure", "message": "...", "retryable": true}}

Failures are *typed*: :data:`ERROR_CODES` is the closed vocabulary, and
``retryable`` tells a client whether backing off and resending is sound
(shard window full, shard being respawned) or pointless (malformed
request).  The same payloads ride the HTTP adapter with the status codes
in :data:`HTTP_STATUS`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serve.requests import (
    ReadRequest,
    ReadResult,
    RequestKind,
    ResultStatus,
    TierReading,
)

PROTOCOL_VERSION = 1

#: Hard bound on one NDJSON line (either direction).  A full-stack poll of
#: a tall stack is ~2 KiB; anything near this bound is abuse, not traffic.
MAX_LINE_BYTES = 256 * 1024

# ------------------------------------------------------------- error codes

MALFORMED = "malformed"  # line is not a JSON object
INVALID = "invalid"  # JSON is fine, the request inside is not
UNKNOWN_OP = "unknown_op"  # op outside the protocol vocabulary
OVERSIZED = "oversized"  # line exceeded MAX_LINE_BYTES
BACKPRESSURE = "backpressure"  # shard window / queue full — back off, retry
SHARD_DOWN = "shard_down"  # owning shard died mid-flight or is quarantined
CLOSED = "closed"  # server is draining; no new work
INTERNAL = "internal"  # engine exception; the request itself may be fine

ERROR_CODES = frozenset(
    {
        MALFORMED,
        INVALID,
        UNKNOWN_OP,
        OVERSIZED,
        BACKPRESSURE,
        SHARD_DOWN,
        CLOSED,
        INTERNAL,
    }
)

#: Codes a client may answer with backoff-and-resend.
RETRYABLE_CODES = frozenset({BACKPRESSURE, SHARD_DOWN})

#: HTTP status the adapter maps each code onto.
HTTP_STATUS: Dict[str, int] = {
    MALFORMED: 400,
    INVALID: 400,
    UNKNOWN_OP: 404,
    OVERSIZED: 413,
    BACKPRESSURE: 503,
    SHARD_DOWN: 503,
    CLOSED: 503,
    INTERNAL: 500,
}

# --------------------------------------------------------------------- ops

READ = "read"  # one ReadRequest against {"stack": s}
PING = "ping"  # edge liveness plus per-shard health
STATS = "stats"  # service-level stats from every shard
CHAOS = "chaos"  # test hook: stage a shard crash or hang (enable_chaos only)

ADMIN_STATUS = "admin.status"  # topology, generation, per-shard health
ADMIN_SCALE = "admin.scale"  # reshape to {"shards": n}
ADMIN_DRAIN_SHARD = "admin.drain_shard"  # drain + remove {"shard": i}
ADMIN_RESTART = "admin.restart"  # rolling restart (or one {"shard": i})

# Subscribing turns server push on for the connection: event objects
# (``{"event": ..., "seq": ..., ...}`` — note: no ``id`` field) are
# interleaved with answers on the NDJSON wire and ride JSON-body frames
# on the binary wire; the HTTP face streams the same events as SSE over
# ``GET /v1/stream``.
STREAM_SUBSCRIBE = "stream.subscribe"  # {"kinds": [...], "metrics": [...], "queue": n}
STREAM_UNSUBSCRIBE = "stream.unsubscribe"  # {"subscription": id}

# ``dtm.throttle`` and ``dtm.release`` are *idempotent by round*: the
# server applies at most one decision per (stack, tier, round) and
# answers duplicates with the standing scale (``applied: false``), so a
# reconnecting controller may replay without double-throttling.
DTM_STATUS = "dtm.status"  # policy, per-(stack, tier) scales, counters
DTM_THROTTLE = "dtm.throttle"  # {"stack": s, "tier": t, "round": r, ...}
DTM_RELEASE = "dtm.release"  # {"stack": s, "tier": t, "round": r, ...}
DTM_DECISIONS = "dtm.decisions"  # {"since": seq} -> decision log tail
DTM_RESET = "dtm.reset"  # drop all scales/decisions back to full power


@dataclass(frozen=True)
class OpSpec:
    """How the edge answers one op, on every face.

    ``token``: gated by the deployment's ``admin_token`` (a missing or
    wrong token answers ``invalid``).  ``task``: runs as its own task
    instead of inline in line order (reads, and reshapes that take
    seconds).  ``http``: method of the op's route :func:`http_path`, or
    ``None`` for the framed wires only; every route also answers
    ``POST``, and a ``GET`` ignores any body.
    """

    token: bool = False
    task: bool = False
    http: Optional[str] = None


#: The op vocabulary, the one place an op is added.  The edge's dispatch
#: and HTTP routing, the ``*_OPS`` families below and the control
#: clients' routes are all read off this table.
OPS: Dict[str, OpSpec] = {
    READ: OpSpec(task=True, http="POST"),
    PING: OpSpec(),
    STATS: OpSpec(),
    CHAOS: OpSpec(),
    ADMIN_STATUS: OpSpec(token=True, task=True, http="GET"),
    ADMIN_SCALE: OpSpec(token=True, task=True, http="POST"),
    ADMIN_DRAIN_SHARD: OpSpec(token=True, task=True, http="POST"),
    ADMIN_RESTART: OpSpec(token=True, task=True, http="POST"),
    STREAM_SUBSCRIBE: OpSpec(),
    STREAM_UNSUBSCRIBE: OpSpec(),
    DTM_STATUS: OpSpec(http="GET"),
    DTM_THROTTLE: OpSpec(http="POST"),
    DTM_RELEASE: OpSpec(http="POST"),
    DTM_DECISIONS: OpSpec(http="POST"),
    DTM_RESET: OpSpec(http="POST"),
}


def http_path(op: str) -> str:
    """The HTTP route of ``op``: ``/v1/read``, ``/v1/admin/scale``, ..."""
    return "/v1/" + op.replace(".", "/")


#: The op families: shard topology control, subscriptions and thermal
#: management.
ADMIN_OPS, STREAM_OPS, DTM_OPS = (
    frozenset(op for op in OPS if op.startswith(family))
    for family in ("admin.", "stream.", "dtm.")
)


class EdgeError(RuntimeError):
    """One typed edge failure, as an exception.

    Raised by :class:`repro.edge.client.EdgeClient` when the server
    answers with an error payload (after retries, for retryable codes)
    and used server-side to funnel routing/window failures into wire
    errors.
    """

    def __init__(self, code: str, message: str, retryable: Optional[bool] = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown edge error code {code!r}")
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retryable = code in RETRYABLE_CODES if retryable is None else retryable

    def to_wire(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "EdgeError":
        code = payload.get("code", INTERNAL)
        if code not in ERROR_CODES:
            code = INTERNAL
        return cls(
            code,
            str(payload.get("message", "")),
            retryable=bool(payload.get("retryable", code in RETRYABLE_CODES)),
        )


# ----------------------------------------------------------------- framing


def encode(payload: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a JSON object.

    Raises:
        EdgeError: ``malformed`` when the line is not a JSON object.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise EdgeError(MALFORMED, f"line is not JSON: {error}") from error
    if not isinstance(payload, dict):
        raise EdgeError(MALFORMED, "line is not a JSON object")
    return payload


def error_payload(
    request_id: Optional[str], error: EdgeError, shard: Optional[int] = None
) -> Dict[str, Any]:
    """The failure answer to one operation."""
    payload: Dict[str, Any] = {"id": request_id, "ok": False, "error": error.to_wire()}
    if shard is not None:
        payload["shard"] = shard
    return payload


def result_payload(
    request_id: Optional[str], result_wire: Mapping[str, Any], shard: int
) -> Dict[str, Any]:
    """The success answer to one ``read`` operation."""
    return {"id": request_id, "ok": True, "shard": shard, "result": dict(result_wire)}


# ------------------------------------------------------- request round-trip

_KINDS = {kind.value: kind for kind in RequestKind}


def request_to_wire(
    request: ReadRequest, deadline_ms: Optional[float] = None
) -> Dict[str, Any]:
    """The wire form of one :class:`ReadRequest`.

    ``request.deadline_s`` is service-clock-relative and meaningless to a
    remote peer, so it never crosses the wire; pass a *relative*
    ``deadline_ms`` instead and the shard worker re-anchors it against
    its own clock on decode.
    """
    payload: Dict[str, Any] = {"kind": request.kind.value, "temp_c": request.temp_c}
    if request.tier is not None:
        payload["tier"] = request.tier
    if request.tiers is not None:
        payload["tiers"] = list(request.tiers)
    if request.temps_c is not None:
        payload["temps_c"] = {str(t): c for t, c in request.temps_c.items()}
    if request.vdd is not None:
        payload["vdd"] = request.vdd
    if request.assume_vdd is not None:
        payload["assume_vdd"] = request.assume_vdd
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return payload


def wire_to_request(payload: Mapping[str, Any], now: float) -> ReadRequest:
    """Decode one wire request against the local clock ``now``.

    Raises:
        EdgeError: ``invalid`` on an unknown kind, missing or ill-typed
            fields — with a message naming the offence.
    """
    if not isinstance(payload, Mapping):
        raise EdgeError(INVALID, "request must be a JSON object")
    kind_name = payload.get("kind")
    kind = _KINDS.get(kind_name)
    if kind is None:
        raise EdgeError(
            INVALID,
            f"unknown request kind {kind_name!r}; known: {sorted(_KINDS)}",
        )
    deadline_ms = payload.get("deadline_ms")
    deadline_s = None
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms < 0:
            raise EdgeError(INVALID, "deadline_ms must be a non-negative number")
        deadline_s = now + float(deadline_ms) / 1e3
    temps_c = payload.get("temps_c")
    if temps_c is not None:
        if not isinstance(temps_c, Mapping):
            raise EdgeError(INVALID, "temps_c must map tier -> Celsius")
        try:
            temps_c = {int(t): float(c) for t, c in temps_c.items()}
        except (TypeError, ValueError) as error:
            raise EdgeError(INVALID, f"temps_c entries must be numeric: {error}")
    tiers = payload.get("tiers")
    if tiers is not None:
        if not isinstance(tiers, (list, tuple)):
            raise EdgeError(INVALID, "tiers must be a list of tier indices")
        try:
            tiers = tuple(int(t) for t in tiers)
        except (TypeError, ValueError) as error:
            raise EdgeError(INVALID, f"tiers entries must be integers: {error}")
    try:
        return ReadRequest(
            kind=kind,
            temp_c=float(payload.get("temp_c", 25.0)),
            tier=None if payload.get("tier") is None else int(payload["tier"]),
            tiers=tiers,
            temps_c=temps_c,
            vdd=None if payload.get("vdd") is None else float(payload["vdd"]),
            assume_vdd=(
                None
                if payload.get("assume_vdd") is None
                else float(payload["assume_vdd"])
            ),
            deadline_s=deadline_s,
        )
    except (TypeError, ValueError) as error:
        raise EdgeError(INVALID, str(error)) from error


# -------------------------------------------------------- result round-trip


def result_to_wire(result: ReadResult) -> Dict[str, Any]:
    """The wire form of one served :class:`ReadResult`."""
    return {
        "status": result.status.value,
        "batch_size": result.batch_size,
        "cache_hits": result.cache_hits,
        "error": result.error,
        "latency_ms": result.latency_s * 1e3,
        "readings": [
            {
                "tier": r.tier,
                "temperature_c": r.temperature_c,
                "dvtn": r.dvtn,
                "dvtp": r.dvtp,
                "converged": r.converged,
                "quality": r.quality,
                "cache_hit": r.cache_hit,
                "conversion_time": r.conversion_time,
                "energy_j": r.energy_j,
            }
            for r in result.readings
        ],
    }


@dataclass(frozen=True)
class EdgeResult:
    """A served answer, as the typed client returns it.

    Field-for-field the remote :class:`~repro.serve.requests.ReadResult`
    (readings are real :class:`TierReading` instances; JSON's
    shortest-round-trip floats make the values bit-identical to the
    shard's), plus the answering shard and the client-side attempt count.
    Fleet clients additionally stamp ``hedged`` (this answer raced a
    hedge) and ``host`` (the replica that won); both wires leave the
    defaults for single-host reads.
    """

    id: str
    shard: int
    status: ResultStatus
    readings: Tuple[TierReading, ...]
    batch_size: int
    cache_hits: int
    error: Optional[str]
    latency_ms: float
    attempts: int = 1
    hedged: bool = False
    host: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (ResultStatus.OK, ResultStatus.DEGRADED)

    def reading_for(self, tier: int) -> TierReading:
        for reading in self.readings:
            if reading.tier == tier:
                return reading
        raise KeyError(f"no reading for tier {tier}")


# ----------------------------------------------------------- binary frames
#
# The fast wire.  A frame is an 8-byte struct-packed header followed by a
# body of exactly ``length`` bytes::
#
#     0      1      2         4            8
#     +------+------+---------+------------+----------------- - -
#     | magic| ver  |  flags  |   length   |  body (length bytes)
#     | 0xB7 | 0x01 | u16 BE  |   u32 BE   |
#     +------+------+---------+------------+----------------- - -
#
# The low 4 bits of ``flags`` select the body encoding: JSON (any
# payload; the compatibility body), or fixed-field packed bodies for the
# three hot shapes — ``read`` operations, ``read`` answers, and typed
# errors.  ``encode_frame`` picks the packed form when the payload fits
# (integer ids, in-range fields) and falls back to a JSON body
# otherwise, so *every* NDJSON payload has a binary representation.
# Floats are packed as IEEE-754 doubles (struct ``d``), which is exactly
# the value — the cross-process bit-identity guarantee holds on both
# wires.
#
# The magic byte 0xB7 is not ``{`` and not an ASCII letter, so the
# server's first-byte sniffer can tell a binary connection from NDJSON
# and HTTP without consuming anything.

BINARY_MAGIC = 0xB7
BINARY_VERSION = 1

FRAME_HEADER = struct.Struct("!BBHI")  # magic, version, flags, body length
FRAME_HEADER_SIZE = FRAME_HEADER.size  # 8 bytes

#: Body encodings (low 4 bits of the header ``flags``).
FRAME_JSON = 0x0  # body is one JSON object (control ops, fallbacks)
FRAME_READ = 0x1  # packed ``read`` operation — the hot request
FRAME_RESULT = 0x2  # packed ``read`` answer
FRAME_ERROR = 0x3  # packed typed error

_FRAME_KIND_MASK = 0x000F

# Closed vocabularies get stable wire indices (wire order is part of the
# protocol; append only).
_CODE_BY_INDEX: Tuple[str, ...] = (
    MALFORMED,
    INVALID,
    UNKNOWN_OP,
    OVERSIZED,
    BACKPRESSURE,
    SHARD_DOWN,
    CLOSED,
    INTERNAL,
)
_INDEX_BY_CODE = {code: i for i, code in enumerate(_CODE_BY_INDEX)}
_KIND_BY_INDEX: Tuple[RequestKind, ...] = tuple(RequestKind)
_INDEX_BY_KIND = {kind: i for i, kind in enumerate(_KIND_BY_INDEX)}
_STATUS_BY_INDEX: Tuple[ResultStatus, ...] = tuple(ResultStatus)
_INDEX_BY_STATUS = {status: i for i, status in enumerate(_STATUS_BY_INDEX)}

# id(i64; -1 = none), stack(i64), kind(u8), tier(i16; -1 = none),
# temp_c, vdd, assume_vdd, deadline_ms (NaN = absent)
_READ_FIXED = struct.Struct("!qqBhdddd")
# id(i64), shard(i16), status(u8), batch_size(u16), cache_hits(u16),
# latency_ms
_RESULT_FIXED = struct.Struct("!qhBHHd")
# tier(u16), temperature_c, dvtn, dvtp, conversion_time, energy_j,
# converged(u8), cache_hit(u8)
_READING = struct.Struct("!HdddddBB")
# id(i64; -1 = none), shard(i16; -1 = none), code(u8), retryable(u8)
_ERROR_FIXED = struct.Struct("!qhBB")
_U16 = struct.Struct("!H")
_TEMP_ENTRY = struct.Struct("!Hd")

_ABSENT_U16 = 0xFFFF  # count sentinel: field absent (vs present-but-empty)


def _pack_str(text: Optional[str]) -> bytes:
    blob = b"" if text is None else text.encode("utf-8")
    if len(blob) > 0xFFFE:
        blob = blob[:0xFFFE]
    return _U16.pack(len(blob) + 1 if text is not None else 0) + blob


class _BodyReader:
    """Sequential unpacking with typed truncation errors."""

    def __init__(self, body: bytes, what: str) -> None:
        self.body = body
        self.offset = 0
        self.what = what

    def unpack(self, spec: struct.Struct) -> tuple:
        try:
            values = spec.unpack_from(self.body, self.offset)
        except struct.error as error:
            raise EdgeError(
                MALFORMED, f"truncated {self.what} frame: {error}"
            ) from error
        self.offset += spec.size
        return values

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.body):
            raise EdgeError(MALFORMED, f"truncated {self.what} frame")
        blob = self.body[self.offset : self.offset + count]
        self.offset += count
        return blob

    def unpack_str(self) -> Optional[str]:
        (marker,) = self.unpack(_U16)
        if marker == 0:
            return None
        return self.take(marker - 1).decode("utf-8", errors="replace")


def _encode_read_body(payload: Mapping[str, Any]) -> bytes:
    request = payload["request"]
    if not isinstance(request, Mapping):
        raise ValueError("read needs a request object")
    kind = _KINDS.get(request.get("kind"))
    if kind is None:
        raise ValueError("unknown request kind")
    tier = request.get("tier")
    deadline_ms = request.get("deadline_ms")
    parts = [
        _READ_FIXED.pack(
            int(payload.get("id", -1)),
            int(payload.get("stack", 0)),
            _INDEX_BY_KIND[kind],
            -1 if tier is None else int(tier),
            float(request.get("temp_c", 25.0)),
            _nan_if_none(request.get("vdd")),
            _nan_if_none(request.get("assume_vdd")),
            _nan_if_none(deadline_ms),
        )
    ]
    tiers = request.get("tiers")
    if tiers is None:
        parts.append(_U16.pack(_ABSENT_U16))
    else:
        parts.append(_U16.pack(len(tiers)))
        for t in tiers:
            parts.append(_U16.pack(int(t)))
    temps_c = request.get("temps_c")
    if temps_c is None:
        parts.append(_U16.pack(_ABSENT_U16))
    else:
        parts.append(_U16.pack(len(temps_c)))
        for t, c in temps_c.items():
            parts.append(_TEMP_ENTRY.pack(int(t), float(c)))
    return b"".join(parts)


def _nan_if_none(value: Optional[float]) -> float:
    return float("nan") if value is None else float(value)


def _none_if_nan(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def _decode_read_body(body: bytes) -> Dict[str, Any]:
    reader = _BodyReader(body, "read")
    (rid, stack, kind_index, tier, temp_c, vdd, assume_vdd, deadline_ms) = (
        reader.unpack(_READ_FIXED)
    )
    if kind_index >= len(_KIND_BY_INDEX):
        raise EdgeError(INVALID, f"unknown request kind index {kind_index}")
    request: Dict[str, Any] = {
        "kind": _KIND_BY_INDEX[kind_index].value,
        "temp_c": temp_c,
    }
    if tier >= 0:
        request["tier"] = tier
    if (vdd := _none_if_nan(vdd)) is not None:
        request["vdd"] = vdd
    if (assume_vdd := _none_if_nan(assume_vdd)) is not None:
        request["assume_vdd"] = assume_vdd
    if (deadline_ms := _none_if_nan(deadline_ms)) is not None:
        request["deadline_ms"] = deadline_ms
    (n_tiers,) = reader.unpack(_U16)
    if n_tiers != _ABSENT_U16:
        request["tiers"] = [reader.unpack(_U16)[0] for _ in range(n_tiers)]
    (n_temps,) = reader.unpack(_U16)
    if n_temps != _ABSENT_U16:
        temps: Dict[str, float] = {}
        for _ in range(n_temps):
            t, c = reader.unpack(_TEMP_ENTRY)
            temps[str(t)] = c
        request["temps_c"] = temps
    return {
        "v": PROTOCOL_VERSION,
        "id": None if rid < 0 else rid,
        "op": "read",
        "stack": stack,
        "request": request,
    }


def _encode_result_body(payload: Mapping[str, Any]) -> bytes:
    result = payload["result"]
    status = ResultStatus(result["status"])
    readings = result.get("readings", ())
    parts = [
        _RESULT_FIXED.pack(
            int(payload.get("id", -1)),
            int(payload.get("shard", -1)),
            _INDEX_BY_STATUS[status],
            int(result.get("batch_size", 0)),
            int(result.get("cache_hits", 0)),
            float(result.get("latency_ms", 0.0)),
        ),
        _pack_str(result.get("error")),
        _U16.pack(len(readings)),
    ]
    for r in readings:
        parts.append(
            _READING.pack(
                int(r["tier"]),
                float(r["temperature_c"]),
                float(r["dvtn"]),
                float(r["dvtp"]),
                float(r.get("conversion_time", 0.0)),
                float(r.get("energy_j", 0.0)),
                1 if r.get("converged", False) else 0,
                1 if r.get("cache_hit", False) else 0,
            )
        )
        parts.append(_pack_str(r.get("quality", "ok")))
    return b"".join(parts)


def _decode_result_body(body: bytes) -> Dict[str, Any]:
    reader = _BodyReader(body, "result")
    rid, shard, status_index, batch_size, cache_hits, latency_ms = reader.unpack(
        _RESULT_FIXED
    )
    if status_index >= len(_STATUS_BY_INDEX):
        raise EdgeError(MALFORMED, f"unknown result status index {status_index}")
    error = reader.unpack_str()
    (n_readings,) = reader.unpack(_U16)
    readings = []
    for _ in range(n_readings):
        (tier, temp, dvtn, dvtp, conv, energy, converged, cache_hit) = (
            reader.unpack(_READING)
        )
        quality = reader.unpack_str()
        readings.append(
            {
                "tier": tier,
                "temperature_c": temp,
                "dvtn": dvtn,
                "dvtp": dvtp,
                "converged": bool(converged),
                "quality": "ok" if quality is None else quality,
                "cache_hit": bool(cache_hit),
                "conversion_time": conv,
                "energy_j": energy,
            }
        )
    return {
        "id": None if rid < 0 else rid,
        "ok": True,
        "shard": shard,
        "result": {
            "status": _STATUS_BY_INDEX[status_index].value,
            "batch_size": batch_size,
            "cache_hits": cache_hits,
            "error": error,
            "latency_ms": latency_ms,
            "readings": readings,
        },
    }


def _encode_error_body(payload: Mapping[str, Any]) -> bytes:
    error = payload["error"]
    code = error.get("code", INTERNAL)
    rid = payload.get("id")
    shard = payload.get("shard")
    return (
        _ERROR_FIXED.pack(
            -1 if rid is None else int(rid),
            -1 if shard is None else int(shard),
            _INDEX_BY_CODE[code],
            1 if error.get("retryable", code in RETRYABLE_CODES) else 0,
        )
        + _pack_str(error.get("message", ""))
    )


def _decode_error_body(body: bytes) -> Dict[str, Any]:
    reader = _BodyReader(body, "error")
    rid, shard, code_index, retryable = reader.unpack(_ERROR_FIXED)
    code = (
        _CODE_BY_INDEX[code_index]
        if code_index < len(_CODE_BY_INDEX)
        else INTERNAL
    )
    message = reader.unpack_str() or ""
    payload: Dict[str, Any] = {
        "id": None if rid < 0 else rid,
        "ok": False,
        "error": {
            "code": code,
            "message": message,
            "retryable": bool(retryable),
        },
    }
    if shard >= 0:
        payload["shard"] = shard
    return payload


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One binary frame: packed body when the payload fits, JSON body else.

    The packed forms require integer ids (the binary clients allocate
    numeric ids); anything that does not fit — string ids, out-of-range
    fields, control ops — rides a JSON body, so every payload of the
    NDJSON protocol is expressible on the binary wire.
    """
    rid = payload.get("id")
    packed_id = rid is None or isinstance(rid, int)
    try:
        if packed_id and payload.get("op") == "read":
            return _frame(FRAME_READ, _encode_read_body(payload))
        if packed_id and payload.get("ok") and "result" in payload:
            return _frame(FRAME_RESULT, _encode_result_body(payload))
        if (
            packed_id
            and payload.get("ok") is False
            and isinstance(payload.get("error"), Mapping)
        ):
            return _frame(FRAME_ERROR, _encode_error_body(payload))
    except (KeyError, TypeError, ValueError, OverflowError, struct.error):
        pass  # payload does not fit the fixed fields; JSON body below
    return _frame(FRAME_JSON, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def _frame(kind: int, body: bytes) -> bytes:
    return FRAME_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, kind, len(body)) + body


def decode_frame_header(header: bytes) -> Tuple[int, int, int]:
    """Parse one frame header into ``(version, kind, body_length)``.

    Raises:
        EdgeError: ``malformed`` on a short header or wrong magic — the
            stream offers no resync point, so the connection must close;
            ``invalid`` on an unsupported version — the header layout
            (and so the ``length`` field) still holds, so the caller may
            skip the body and keep the connection.
    """
    if len(header) < FRAME_HEADER_SIZE:
        raise EdgeError(MALFORMED, "truncated frame header")
    magic, version, flags, length = FRAME_HEADER.unpack(header[:FRAME_HEADER_SIZE])
    if magic != BINARY_MAGIC:
        raise EdgeError(
            MALFORMED, f"bad frame magic 0x{magic:02x} (want 0x{BINARY_MAGIC:02x})"
        )
    if version != BINARY_VERSION:
        raise EdgeError(
            INVALID,
            f"unsupported frame version {version} (speaking {BINARY_VERSION})",
        )
    return version, flags & _FRAME_KIND_MASK, length


def decode_frame_body(kind: int, body: bytes) -> Dict[str, Any]:
    """Decode one frame body into the equivalent NDJSON payload.

    Raises:
        EdgeError: ``malformed`` on truncated bodies / non-object JSON,
            ``invalid`` on unknown frame kinds.
    """
    if kind == FRAME_JSON:
        return decode_line(body)
    if kind == FRAME_READ:
        return _decode_read_body(body)
    if kind == FRAME_RESULT:
        return _decode_result_body(body)
    if kind == FRAME_ERROR:
        return _decode_error_body(body)
    raise EdgeError(INVALID, f"unknown frame kind {kind}")


def wire_to_edge_result(
    payload: Mapping[str, Any], attempts: int = 1
) -> EdgeResult:
    """Decode one success answer into an :class:`EdgeResult`."""
    result = payload.get("result") or {}
    readings = tuple(
        TierReading(
            tier=int(r["tier"]),
            temperature_c=float(r["temperature_c"]),
            dvtn=float(r["dvtn"]),
            dvtp=float(r["dvtp"]),
            converged=bool(r["converged"]),
            quality=str(r.get("quality", "ok")),
            cache_hit=bool(r.get("cache_hit", False)),
            conversion_time=float(r.get("conversion_time", 0.0)),
            energy_j=float(r.get("energy_j", 0.0)),
        )
        for r in result.get("readings", ())
    )
    return EdgeResult(
        id=str(payload.get("id")),
        shard=int(payload.get("shard", -1)),
        status=ResultStatus(result.get("status", "error")),
        readings=readings,
        batch_size=int(result.get("batch_size", 0)),
        cache_hits=int(result.get("cache_hits", 0)),
        error=result.get("error"),
        latency_ms=float(result.get("latency_ms", 0.0)),
        attempts=attempts,
    )
