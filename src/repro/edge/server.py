"""The asyncio network edge: NDJSON, binary frames + HTTP on one port.

:class:`EdgeServer` is the remote front door of a sharded sensor-readout
deployment.  One listening socket speaks three protocols — the first
byte of a connection decides:

* ``{`` opens the newline-delimited JSON protocol of
  :mod:`repro.edge.protocol` (pipelined ops, answers matched by id);
* ``0xB7`` (the frame magic) opens the length-prefixed binary frame
  protocol — same operations and error vocabulary, struct-packed
  fixed-field bodies for the hot ``read`` path, negotiated simply by
  the client sending its first frame;
* anything else is parsed as HTTP/1.1 with **keep-alive** (the 1.1
  default: many exchanges per connection, pipelining honoured), a
  minimal adapter with routes ``POST /v1/read``, ``GET /healthz``
  (shard supervision state), ``GET /metrics`` (the process-wide
  telemetry registry in Prometheus text format), plus one route per
  control op of :data:`~repro.edge.protocol.OPS`
  (``/v1/admin/<verb>``, token-gated when the deployment configures
  ``admin_token``, and ``/v1/dtm/<verb>``).

Connections idle longer than ``idle_timeout_s`` are closed; the
``/healthz`` and ``/metrics`` bodies can be cached for
``status_cache_s`` so aggressive scrapers don't make the edge render
its registry per probe.

Requests route through the :class:`~repro.edge.supervisor.ShardPool`;
every failure a client can see is typed (`docs/edge.md` lists the
vocabulary) and the connection always survives a bad line — malformed
JSON, unknown ops and oversized payloads are answered, not punished
with a reset.

Threading model: the asyncio loop owns sockets and framing; the pool
owns processes and pipes; ``asyncio.wrap_future`` bridges the two.  A
blocking helper (:class:`EdgeServerThread`) runs the whole server on a
background thread for the sync CLI, tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import telemetry
from repro.edge import protocol
from repro.edge.autoscale import Autoscaler
from repro.edge.deploy import EdgeDeployment
from repro.edge.protocol import EdgeError
from repro.edge.stream import StreamPlane, StreamPolicy, clamp_queue, format_sse
from repro.edge.supervisor import ShardPool, ShardState
from repro.dtm.table import DtmTable
from repro.network.dtm import DtmPolicy
from repro.telemetry.rollup import ROLLUP_TIERS
from repro.serve.admission import AdmissionPolicy
from repro.serve.scheduler import BatchPolicy

_CONNECTIONS = telemetry.counter(
    "edge.connections", unit="connections", help="TCP connections accepted"
)
_REQUESTS = telemetry.counter(
    "edge.requests", unit="requests", help="NDJSON read operations received"
)
_HTTP_REQUESTS = telemetry.counter(
    "edge.http_requests", unit="requests", help="HTTP requests received"
)
_ERRORS = telemetry.counter(
    "edge.errors", unit="responses", help="Typed error responses sent to clients"
)
_REQUEST_MS = telemetry.histogram(
    "edge.request_ms", unit="ms", help="Edge-side end-to-end read latency"
)
_BYTES_IN = telemetry.counter(
    "edge.bytes_in", unit="bytes", help="Bytes read from client connections"
)
_BYTES_OUT = telemetry.counter(
    "edge.bytes_out", unit="bytes", help="Bytes written to client connections"
)
_CPU_US = telemetry.histogram(
    "edge.cpu_us_per_request",
    unit="us",
    help="Edge CPU time spent decoding + encoding one read exchange "
    "(wire cost only; shard time excluded)",
)

_HTTP_METHODS = (b"GET", b"POST", b"PUT", b"HEAD", b"DELETE", b"OPTIONS", b"PATCH")


@dataclass(frozen=True)
class EdgeConfig:
    """One edge deployment, fully specified.

    Attributes:
        host / port: Listening address (port ``0`` picks an ephemeral
            port, exposed as :attr:`EdgeServer.port` once started).
        shards: Backend worker-process count.
        tiers: Stack height of every shard's die stack.
        root_seed: Deployment seed; shard ``i`` serves the stack seeded
            with ``shard_seed(root_seed, i)``.
        deterministic: Serve deterministic conversions (the default and
            the mode the cross-process determinism guarantee covers).
        batch / admission: Per-shard embedded-service policies.
        cache_capacity / cache_ttl_s: Per-shard result-cache knobs.
        window: Bound on requests outstanding per shard at the edge —
            the remote face of admission control.
        ipc_batch: Routed reads coalesced per worker pipe message (1
            restores one-message-per-read IPC).
        ipc_linger_s: Longest a part-filled IPC batch waits to fill
            before flushing to the worker pipe.
        max_line_bytes: NDJSON line / binary frame body / HTTP body
            bound; beyond it the client gets a typed ``oversized``
            error.
        idle_timeout_s: Close connections that stay silent this long
            between reads (``0`` disables the timeout).
        status_cache_s: Serve ``/healthz`` and ``/metrics`` from a
            cached render no older than this (``0``, the default,
            renders fresh per request).
        stall_ms: Artificial delay added to every read answer (fault
            injection for fleet/hedging tests — a deterministic "slow
            host"; ``0`` disables it).
        start_method: Multiprocessing start method of the workers
            (``spawn`` is the safe default; ``fork`` starts faster).
        health_interval_s / health_timeout_s / respawn_backoff_s:
            Supervision cadence.
        shard_fault_plans: Optional ``shard index -> FaultPlan`` map;
            each named shard activates its plan at startup (per-shard
            fault targeting).
        access_log: Optional per-shard access-log path; use the
            ``{pid}`` / ``{instance}`` placeholders to keep one file per
            worker process.
        enable_chaos: Let clients stage worker crashes/hangs (tests).
        admin_token: Shared secret gating the ``admin.*`` control-plane
            ops (``None``, the default, leaves them open — suitable for
            loopback deployments only).
        warm_spares: Pre-seeded standby workers kept outside the ring so
            scale-up is a ring-join, not a cold spawn.
        autoscale: Optional
            :class:`~repro.edge.autoscale.AutoscalePolicy`; when set,
            the server runs an :class:`~repro.edge.autoscale.Autoscaler`
            loop against its own pool.
        stream: The streaming plane's knobs (sampler cadence, heartbeat,
            subscriber queue bound, rollup windows, detector thresholds);
            see :class:`~repro.edge.stream.StreamPolicy`.
        dtm: Hysteresis policy of the ``dtm.*`` control plane's decision
            table (see :class:`~repro.network.dtm.DtmPolicy`); the live
            controller's policy must match it for exact mirroring.
        dtm_deadline_ms: Decision-latency budget; decisions reporting a
            larger measured latency are counted as deadline misses.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 4
    tiers: int = 8
    root_seed: int = 2012
    deterministic: bool = True
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_capacity: int = 2048
    cache_ttl_s: float = 5.0
    window: int = 64
    ipc_batch: int = 16
    ipc_linger_s: float = 0.0005
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    idle_timeout_s: float = 300.0
    status_cache_s: float = 0.0
    stall_ms: float = 0.0
    start_method: str = "spawn"
    health_interval_s: float = 1.0
    health_timeout_s: float = 5.0
    respawn_backoff_s: float = 0.05
    ring_replicas: int = 64
    shard_fault_plans: Optional[Mapping[int, object]] = None
    access_log: Optional[str] = None
    enable_chaos: bool = False
    admin_token: Optional[str] = None
    warm_spares: int = 0
    autoscale: Optional[object] = None  # AutoscalePolicy; object keeps it picklable-lazy
    stream: StreamPolicy = field(default_factory=StreamPolicy)
    dtm: DtmPolicy = field(default_factory=DtmPolicy)
    dtm_deadline_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.dtm_deadline_ms <= 0.0:
            raise ValueError("dtm_deadline_ms must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.warm_spares < 0:
            raise ValueError("warm_spares must be >= 0")
        if self.max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        if self.ipc_batch < 1:
            raise ValueError("ipc_batch must be >= 1")
        if self.ipc_linger_s < 0.0:
            raise ValueError("ipc_linger_s must be non-negative")
        if self.idle_timeout_s < 0.0:
            raise ValueError("idle_timeout_s must be non-negative")
        if self.status_cache_s < 0.0:
            raise ValueError("status_cache_s must be non-negative")
        if self.stall_ms < 0.0:
            raise ValueError("stall_ms must be non-negative")


def metrics_text(
    registry=None,
    labelled: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """The telemetry registry in Prometheus exposition text format.

    Dotted metric names become underscore-joined with a ``repro_``
    prefix; histograms export ``_count`` / ``_sum`` plus min/max gauges.

    ``labelled`` maps a dotted metric name to ``{label_expr: value}``
    children (e.g. ``{"edge.shards": {'state="healthy"': 4}}``); each
    child renders as ``name{label_expr} value`` grouped under its
    family, right after the aggregate sample.  The registry itself
    stays label-free — labelled breakdowns are computed at render time
    from live state (shard lifecycle, fleet membership).
    """
    if registry is None:
        registry = telemetry.get().registry
    labelled = labelled or {}
    lines = []
    for record in registry.snapshot():
        name = "repro_" + record["name"].replace(".", "_")
        kind = record["kind"]
        if kind == "histogram":
            lines.append(f"# TYPE {name} summary")
            lines.append(f"{name}_count {record['count']}")
            lines.append(f"{name}_sum {record['sum']}")
            for stat in ("min", "max", "mean", "p50", "p90"):
                if record.get(stat) is not None:
                    lines.append(f"{name}_{stat} {record[stat]}")
            continue
        prom_kind = "counter" if kind == "counter" else "gauge"
        value = record["value"]
        lines.append(f"# TYPE {name} {prom_kind}")
        lines.append(f"{name} {0 if value is None else value}")
        for label_expr, child_value in labelled.get(record["name"], {}).items():
            lines.append(f"{name}{{{label_expr}}} {child_value}")
    return "\n".join(lines) + "\n"


#: The ``unknown_op`` hint: the framed data ops, then the op families
#: (``chaos`` is a test hook and is not advertised).
_KNOWN_OPS = ", ".join(
    [op for op in protocol.OPS if "." not in op and op != protocol.CHAOS]
    + sorted(op for op in protocol.OPS if "." in op)
)

#: HTTP route -> op, for every op that has a route.
_HTTP_ROUTES = {
    protocol.http_path(op): op for op, spec in protocol.OPS.items() if spec.http
}


def _route_hint() -> str:
    """Every HTTP route, as the no-route answer lists them: ``read``'s,
    the status routes, then each family's ``GET`` routes and one entry
    for its ``POST`` verbs."""
    routes = [
        f"POST /v1/{op.rpartition('.')[0]}/<verb>"
        if "." in op and spec.http == "POST"
        else f"{spec.http} {protocol.http_path(op)}"
        for op, spec in protocol.OPS.items()
        if spec.http
    ]
    routes[1:1] = ["GET /healthz", "GET /metrics", "GET /v1/stream", "GET /v1/rollup"]
    return ", ".join(dict.fromkeys(routes))


_ROUTE_HINT = _route_hint()


def _http_status(answer: Mapping[str, Any]) -> int:
    if answer.get("ok"):
        return 200
    return protocol.HTTP_STATUS.get(answer["error"]["code"], 500)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


async def _offload(fn: Callable, *args: Any) -> Any:
    """Run a blocking pool call in the executor, off the event loop."""
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


class EdgeServer:
    """The asyncio TCP/HTTP edge over a supervised shard pool."""

    def __init__(self, config: EdgeConfig = EdgeConfig()) -> None:
        self.config = config
        deployment = EdgeDeployment.from_edge_config(config)
        self.pool = ShardPool(
            deployment.worker_configs(),
            window=config.window,
            start_method=config.start_method,
            health_interval_s=config.health_interval_s,
            health_timeout_s=config.health_timeout_s,
            respawn_backoff_s=config.respawn_backoff_s,
            ring_replicas=config.ring_replicas,
            ipc_batch=config.ipc_batch,
            ipc_linger_s=config.ipc_linger_s,
            config_factory=deployment.worker_config,
            warm_spares=config.warm_spares,
        )
        self.autoscaler: Optional[Autoscaler] = None
        if config.autoscale is not None:
            self.autoscaler = Autoscaler(self.pool, config.autoscale)
        self.plane = StreamPlane(config.stream)
        self.dtm = DtmTable(config.dtm, deadline_ms=config.dtm_deadline_ms)
        # The ops this edge answers: the protocol table, less the chaos
        # hook unless the deployment enables it.
        self._ops = {
            op: spec
            for op, spec in protocol.OPS.items()
            if op != protocol.CHAOS or config.enable_chaos
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._closing = False
        self.port: Optional[int] = None
        # target -> (rendered_at, status, content_type, blob); see
        # EdgeConfig.status_cache_s.
        self._status_cache: Dict[str, Tuple[float, int, str, bytes]] = {}

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Spawn the shard pool and open the listening socket."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.start)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.plane.start(loop)
        if self.autoscaler is not None:
            self.autoscaler.start()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self, drain: bool = True, connection_grace_s: float = 5.0) -> None:
        """Graceful drain: stop accepting, finish in-flight, stop shards.

        Connections still open after ``connection_grace_s`` (an idle
        client holding its socket) are cancelled — drain waits for
        *work*, not for clients to hang up.
        """
        self._closing = True
        await self.plane.stop()
        if self.autoscaler is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.autoscaler.stop)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._connections:
            done, stragglers = await asyncio.wait(
                list(self._connections),
                timeout=connection_grace_s if drain else 0.1,
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: self.pool.close(drain=drain))

    # ------------------------------------------------------------ connections

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        _CONNECTIONS.inc()
        write_lock = asyncio.Lock()
        inflight: set = set()
        # subscription id -> (Subscription, pusher task); the connection
        # owns its pushers and tears them down on any exit path.
        pushers: Dict[int, Tuple[Any, asyncio.Task]] = {}
        try:
            first = await self._read_some(reader)
            if first:
                buffer = bytearray(first)
                if buffer.startswith(b"{"):
                    await self._serve_ndjson(
                        reader, writer, buffer, write_lock, inflight, pushers
                    )
                elif buffer[0] == protocol.BINARY_MAGIC:
                    await self._serve_binary(
                        reader, writer, buffer, write_lock, inflight, pushers
                    )
                else:
                    await self._serve_http(reader, writer, buffer)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; in-flight work still completes below
        except asyncio.CancelledError:
            pass  # drain grace expired; fall through to cleanup
        finally:
            self._connections.discard(task)
            try:
                for sub, pusher in pushers.values():
                    self.plane.hub.unsubscribe(sub)
                    pusher.cancel()
                if pushers:
                    await asyncio.gather(
                        *(p for _, p in pushers.values()), return_exceptions=True
                    )
                if inflight:
                    await asyncio.gather(*list(inflight), return_exceptions=True)
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_some(self, reader) -> bytes:
        """One chunk from the client, idle-timeout bounded; ``b''`` closes."""
        if self.config.idle_timeout_s > 0.0:
            try:
                chunk = await asyncio.wait_for(
                    reader.read(65536), timeout=self.config.idle_timeout_s
                )
            except asyncio.TimeoutError:
                return b""
        else:
            chunk = await reader.read(65536)
        if chunk:
            _BYTES_IN.inc(len(chunk))
        return chunk

    async def _send(
        self,
        writer,
        write_lock,
        payload: Mapping[str, Any],
        encode: Callable[[Mapping[str, Any]], bytes] = protocol.encode,
    ) -> None:
        await self._send_raw(writer, write_lock, encode(payload))

    async def _send_raw(self, writer, write_lock, blob: bytes) -> None:
        async with write_lock:
            writer.write(blob)
            _BYTES_OUT.inc(len(blob))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # reader hung up mid-answer; nothing left to say

    # ------------------------------------------------------------------ NDJSON

    async def _serve_ndjson(
        self, reader, writer, buffer: bytearray, write_lock, inflight, pushers
    ) -> None:
        """The newline-delimited JSON face: one op per line, pipelined."""
        dropping = False
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                if dropping:
                    buffer.clear()
                elif len(buffer) > self.config.max_line_bytes:
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_payload(
                            None,
                            EdgeError(
                                protocol.OVERSIZED,
                                f"line exceeds {self.config.max_line_bytes} bytes",
                            ),
                        ),
                    )
                    _ERRORS.inc()
                    dropping = True
                    buffer.clear()
                chunk = await self._read_some(reader)
                if not chunk:
                    return
                buffer += chunk
                continue
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            if dropping:
                dropping = False  # the runt tail of an oversized line
                continue
            if not line.strip():
                continue
            if len(line) > self.config.max_line_bytes:
                await self._send(
                    writer,
                    write_lock,
                    protocol.error_payload(
                        None,
                        EdgeError(
                            protocol.OVERSIZED,
                            f"line exceeds {self.config.max_line_bytes} bytes",
                        ),
                    ),
                )
                _ERRORS.inc()
                continue
            await self._handle_line(line, writer, write_lock, inflight, pushers)

    async def _handle_line(
        self, line, writer, write_lock, inflight, pushers
    ) -> None:
        """Decode one NDJSON line and dispatch its operation."""
        started = time.perf_counter()
        try:
            payload = protocol.decode_line(line)
        except EdgeError as error:
            _ERRORS.inc()
            await self._send(writer, write_lock, protocol.error_payload(None, error))
            return
        decode_s = time.perf_counter() - started
        await self._dispatch(
            payload, writer, write_lock, inflight, pushers, protocol.encode, decode_s
        )

    # ----------------------------------------------------------- binary frames

    async def _serve_binary(
        self, reader, writer, buffer: bytearray, write_lock, inflight, pushers
    ) -> None:
        """The length-prefixed binary-frame face: same ops, packed bodies.

        Framing errors follow the NDJSON answer-don't-reset discipline
        wherever a resync point exists: an unsupported version or an
        oversized frame is answered typed and its declared body skipped;
        bad magic means framing is lost, so the error is answered and
        the connection closed.  A header truncated at EOF closes
        quietly.
        """
        encode = protocol.encode_frame
        while True:
            while len(buffer) < protocol.FRAME_HEADER_SIZE:
                chunk = await self._read_some(reader)
                if not chunk:
                    return  # clean close (or truncated header) at EOF
                buffer += chunk
            header = bytes(buffer[: protocol.FRAME_HEADER_SIZE])
            started = time.perf_counter()
            try:
                _version, kind, length = protocol.decode_frame_header(header)
            except EdgeError as error:
                _ERRORS.inc()
                await self._send(
                    writer, write_lock, protocol.error_payload(None, error), encode
                )
                if error.code == protocol.MALFORMED:
                    return  # bad magic: no resync point in the stream
                # Unsupported version: the header layout (and so the
                # length field) still holds — skip the body and survive.
                length = protocol.FRAME_HEADER.unpack(header)[3]
                del buffer[: protocol.FRAME_HEADER_SIZE]
                if not await self._skip_bytes(reader, buffer, length):
                    return
                continue
            decode_s = time.perf_counter() - started
            del buffer[: protocol.FRAME_HEADER_SIZE]
            if length > self.config.max_line_bytes:
                _ERRORS.inc()
                await self._send(
                    writer,
                    write_lock,
                    protocol.error_payload(
                        None,
                        EdgeError(
                            protocol.OVERSIZED,
                            f"frame body of {length} bytes exceeds "
                            f"{self.config.max_line_bytes}",
                        ),
                    ),
                    encode,
                )
                if not await self._skip_bytes(reader, buffer, length):
                    return
                continue
            while len(buffer) < length:
                chunk = await self._read_some(reader)
                if not chunk:
                    return  # body truncated at EOF
                buffer += chunk
            body = bytes(buffer[:length])
            del buffer[:length]
            started = time.perf_counter()
            try:
                payload = protocol.decode_frame_body(kind, body)
            except EdgeError as error:
                _ERRORS.inc()
                await self._send(
                    writer, write_lock, protocol.error_payload(None, error), encode
                )
                continue
            decode_s += time.perf_counter() - started
            await self._dispatch(
                payload, writer, write_lock, inflight, pushers, encode, decode_s
            )

    async def _skip_bytes(self, reader, buffer: bytearray, count: int) -> bool:
        """Discard ``count`` declared body bytes; ``False`` means EOF."""
        while count > 0:
            if buffer:
                taken = min(count, len(buffer))
                del buffer[:taken]
                count -= taken
                continue
            chunk = await self._read_some(reader)
            if not chunk:
                return False
            buffer += chunk
        return True

    # --------------------------------------------------------------- dispatch

    async def _dispatch(
        self, payload, writer, write_lock, inflight, pushers, encode, decode_s: float
    ) -> None:
        """Route one decoded operation; answers with ``encode``'s format."""
        request_id = payload.get("id")
        op = payload.get("op", protocol.READ)
        spec = self._ops.get(op) if isinstance(op, str) else None
        if spec is None:
            _ERRORS.inc()
            error = EdgeError(
                protocol.UNKNOWN_OP, f"unknown op {op!r}; known: {_KNOWN_OPS}"
            )
            await self._send(
                writer, write_lock, protocol.error_payload(request_id, error), encode
            )
            return
        if op in protocol.STREAM_OPS:
            await self._answer_stream(
                payload, request_id, writer, write_lock, pushers, encode
            )
            return
        if op == protocol.READ:
            work = self._answer_read(
                payload, request_id, writer, write_lock, encode, decode_s
            )
        else:
            work = self._answer_op(op, payload, request_id, writer, write_lock, encode)
        if not spec.task:
            await work
            return
        task = asyncio.ensure_future(work)
        inflight.add(task)
        task.add_done_callback(inflight.discard)

    async def _answer_op(self, op, payload, request_id, writer, write_lock, encode):
        await self._send(
            writer, write_lock, await self._execute(op, payload, request_id), encode
        )

    async def _execute(self, op: str, payload, request_id) -> Dict[str, Any]:
        """Run one control op; returns the (typed) answer payload.

        Wire-agnostic: the framed dispatcher and the HTTP adapter both
        funnel here, so every op behaves identically on every wire.  A
        token failure on a gated op answers ``invalid`` (the vocabulary
        stays closed), as does a ``ValueError`` from the handler.
        """
        token = self.config.admin_token
        gated = protocol.OPS[op].token and token is not None
        try:
            if gated and payload.get("token") != token:
                raise EdgeError(
                    protocol.INVALID,
                    "admin ops need a valid 'token' on this deployment",
                )
            fields = await getattr(self, "_op_" + op.replace(".", "_"))(payload)
        except EdgeError as error:
            _ERRORS.inc()
            return protocol.error_payload(request_id, error)
        except ValueError as error:
            _ERRORS.inc()
            return protocol.error_payload(
                request_id, EdgeError(protocol.INVALID, str(error))
            )
        return {"id": request_id, "ok": True, **fields}

    # -------------------------------------------------------------- handlers
    #
    # One handler per op of protocol.OPS that runs through _execute,
    # named after the op (``admin.scale`` -> ``_op_admin_scale``).  Each
    # returns the answer's fields, or raises EdgeError / ValueError.
    # Blocking pool calls (reshapes drain shards and spawn processes)
    # run in the executor.

    async def _op_ping(self, payload) -> Dict[str, Any]:
        return {"pong": "edge", "draining": self._closing, "shards": self.pool.health()}

    async def _op_stats(self, payload) -> Dict[str, Any]:
        return {"shards": await _offload(self.pool.shard_stats)}

    async def _op_chaos(self, payload) -> Dict[str, Any]:
        try:
            self.pool.chaos(int(payload.get("shard", 0)), payload.get("kind", "exit"))
        except (EdgeError, ValueError, KeyError, TypeError) as error:
            raise EdgeError(protocol.INTERNAL, str(error)) from error
        return {}

    async def _op_admin_status(self, payload) -> Dict[str, Any]:
        status = self.pool.status()
        status["draining"] = self._closing
        status["autoscaler"] = (
            None if self.autoscaler is None else self.autoscaler.status()
        )
        status["stream"] = self.plane.status()
        status["dtm"] = self.dtm.status()
        return {"status": status}

    async def _op_admin_scale(self, payload) -> Dict[str, Any]:
        shards = payload.get("shards")
        if not _is_int(shards) or shards < 1:
            raise EdgeError(
                protocol.INVALID, "admin.scale needs a positive integer 'shards'"
            )
        indices = await _offload(self.pool.scale_to, shards)
        return {"shards": indices, "generation": self.pool.generation}

    async def _op_admin_drain_shard(self, payload) -> Dict[str, Any]:
        shard = payload.get("shard")
        if not _is_int(shard):
            raise EdgeError(
                protocol.INVALID, "admin.drain_shard needs an integer 'shard'"
            )
        await _offload(self.pool.remove_shard, shard)
        return {"shards": self.pool.shard_indices, "generation": self.pool.generation}

    async def _op_admin_restart(self, payload) -> Dict[str, Any]:
        shard = payload.get("shard")
        if shard is None:
            restarted = await _offload(self.pool.rolling_restart)
        elif _is_int(shard):
            await _offload(self.pool.restart_shard, shard)
            restarted = [shard]
        else:
            raise EdgeError(
                protocol.INVALID,
                "admin.restart 'shard' must be an integer when present",
            )
        return {"restarted": restarted, "generation": self.pool.generation}

    async def _op_dtm_status(self, payload) -> Dict[str, Any]:
        return {"status": self.dtm.status()}

    async def _op_dtm_throttle(self, payload) -> Dict[str, Any]:
        """``dtm.throttle`` and ``dtm.release``: idempotent by round."""
        op = payload["op"]
        for name in ("stack", "tier", "round"):
            if not _is_int(payload.get(name)):
                raise EdgeError(protocol.INVALID, f"{op} needs an integer '{name}'")
        latency_ms = payload.get("latency_ms")
        if latency_ms is not None and (
            not isinstance(latency_ms, (int, float))
            or isinstance(latency_ms, bool)
            or latency_ms < 0
        ):
            raise EdgeError(
                protocol.INVALID,
                "latency_ms must be a non-negative number when present",
            )
        decision = self.dtm.apply(
            payload["stack"],
            payload["tier"],
            payload["round"],
            op.split(".", 1)[1],
            latency_ms=None if latency_ms is None else float(latency_ms),
        )
        return {"decision": decision.to_record()}

    _op_dtm_release = _op_dtm_throttle

    async def _op_dtm_decisions(self, payload) -> Dict[str, Any]:
        since = payload.get("since", 0)
        if not _is_int(since) or since < 0:
            raise EdgeError(
                protocol.INVALID,
                "dtm.decisions 'since' must be a non-negative integer",
            )
        return {"decisions": self.dtm.decisions_since(since)}

    async def _op_dtm_reset(self, payload) -> Dict[str, Any]:
        return {"seq": self.dtm.reset()}

    # ----------------------------------------------------------- stream plane

    def _parse_subscribe(self, payload) -> Tuple[Any, Any, int]:
        """Validate subscribe fields -> (kinds, metrics, queue)."""
        kinds = payload.get("kinds")
        if kinds is not None and not (
            isinstance(kinds, list) and all(isinstance(k, str) for k in kinds)
        ):
            raise EdgeError(
                protocol.INVALID, "'kinds' must be a list of event kinds"
            )
        metrics = payload.get("metrics")
        if metrics is not None and not (
            isinstance(metrics, list) and all(isinstance(m, str) for m in metrics)
        ):
            raise EdgeError(
                protocol.INVALID, "'metrics' must be a list of name prefixes"
            )
        try:
            queue = clamp_queue(payload.get("queue"), self.config.stream.queue)
        except ValueError as error:
            raise EdgeError(protocol.INVALID, str(error)) from error
        return kinds, metrics, queue

    async def _answer_stream(
        self, payload, request_id, writer, write_lock, pushers, encode
    ) -> None:
        """``stream.subscribe`` / ``stream.unsubscribe`` on a data wire.

        Subscribing attaches a pusher task to this connection: event
        objects (``{"event": ..., "seq": ..., "sub": ...}`` — no ``id``
        field, so request/answer matching is unaffected) interleave with
        answers under the connection write lock; on the binary wire they
        ride JSON-body frames.  The subscription dies with the
        connection, on unsubscribe, or when its queue policy says the
        consumer is too slow (events drop, typed — never the socket).
        """
        op = payload.get("op")
        if op == protocol.STREAM_SUBSCRIBE:
            try:
                kinds, metrics, queue = self._parse_subscribe(payload)
            except EdgeError as error:
                _ERRORS.inc()
                await self._send(
                    writer, write_lock,
                    protocol.error_payload(request_id, error), encode,
                )
                return
            loop = asyncio.get_running_loop()
            flag = asyncio.Event()
            sub = self.plane.hub.subscribe(
                kinds=kinds,
                metrics=metrics,
                queue=queue,
                notify=lambda: loop.call_soon_threadsafe(flag.set),
            )
            # Ack first, then start pushing: the subscriber must see its
            # subscription id before the first event referencing it.
            await self._send(
                writer,
                write_lock,
                {
                    "id": request_id,
                    "ok": True,
                    "subscription": sub.id,
                    "queue": sub.maxlen,
                },
                encode,
            )
            task = asyncio.ensure_future(
                self._push_events(sub, flag, writer, write_lock, encode)
            )
            pushers[sub.id] = (sub, task)
            return
        sub_id = payload.get("subscription")
        entry = pushers.pop(sub_id, None) if isinstance(sub_id, int) else None
        if entry is None:
            _ERRORS.inc()
            await self._send(
                writer,
                write_lock,
                protocol.error_payload(
                    request_id,
                    EdgeError(
                        protocol.INVALID,
                        "stream.unsubscribe needs the integer 'subscription' "
                        "id of a live subscription on this connection",
                    ),
                ),
                encode,
            )
            return
        sub, task = entry
        self.plane.hub.unsubscribe(sub)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        await self._send(
            writer,
            write_lock,
            {
                "id": request_id,
                "ok": True,
                "subscription": sub.id,
                "dropped": sub.dropped,
            },
            encode,
        )

    async def _push_events(self, sub, flag, writer, write_lock, encode) -> None:
        """One subscription's pusher: drain-or-heartbeat until torn down."""
        heartbeat_s = self.config.stream.heartbeat_s
        try:
            while not (self._closing or sub.closed):
                try:
                    await asyncio.wait_for(flag.wait(), timeout=heartbeat_s)
                    flag.clear()
                except asyncio.TimeoutError:
                    await self._send(
                        writer,
                        write_lock,
                        {"event": "heartbeat", "sub": sub.id},
                        encode,
                    )
                    continue
                for event in sub.poll():
                    record = event.to_wire()
                    record["sub"] = sub.id
                    await self._send(writer, write_lock, record, encode)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self.plane.hub.unsubscribe(sub)

    async def _answer_read(
        self, payload, request_id, writer, write_lock, encode, decode_s: float
    ) -> None:
        answer = await self._route_read(payload, request_id)
        started = time.perf_counter()
        blob = encode(answer)
        _CPU_US.observe((decode_s + time.perf_counter() - started) * 1e6)
        await self._send_raw(writer, write_lock, blob)

    async def _route_read(self, payload, request_id) -> Dict[str, Any]:
        """Route one read through its shard; always returns an answer."""
        _REQUESTS.inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        if self.config.stall_ms > 0.0:
            # Injected slow-host fault: every answer sits out the stall,
            # so a hedging fleet client sees a fat per-host tail.
            await asyncio.sleep(self.config.stall_ms / 1e3)
        stack_id = payload.get("stack", 0)
        if not isinstance(stack_id, int):
            _ERRORS.inc()
            return protocol.error_payload(
                request_id,
                EdgeError(protocol.INVALID, "stack must be an integer stack id"),
            )
        wire_request = payload.get("request")
        if not isinstance(wire_request, dict):
            _ERRORS.inc()
            return protocol.error_payload(
                request_id,
                EdgeError(protocol.INVALID, "read needs a 'request' object"),
            )
        shard = self.pool.route(stack_id)
        with telemetry.span(
            "edge.request", id=request_id, stack=stack_id, shard=shard
        ) as span:
            try:
                future = self.pool.submit_read(stack_id, wire_request)
                reply = await asyncio.wrap_future(future)
            except EdgeError as error:
                _ERRORS.inc()
                span.set(error=error.code)
                return protocol.error_payload(request_id, error, shard=shard)
            _REQUEST_MS.observe((loop.time() - started) * 1e3)
            if reply.get("ok"):
                span.set(status=reply["result"]["status"])
                self.plane.ingest_read(stack_id, reply["result"], loop.time())
                return protocol.result_payload(request_id, reply["result"], shard)
            _ERRORS.inc()
            error = EdgeError.from_wire(reply.get("error", {}))
            span.set(error=error.code)
            return protocol.error_payload(request_id, error, shard=shard)

    # -------------------------------------------------------------------- HTTP

    async def _serve_http(self, reader, writer, buffer: bytearray) -> None:
        """Serve HTTP/1.1 exchanges until the connection is done.

        Keep-alive is the HTTP/1.1 default: the loop answers request
        after request on one connection (honouring ``Connection:
        close`` / ``keep-alive``, with HTTP/1.0 defaulting to close),
        and pipelined requests already buffered are answered in order.
        Unframable requests (bad request line, oversized or unreadable
        bodies) are still *answered* typed, but end the connection —
        the stream offers no safe resync point past them.
        """
        try:
            while True:
                while b"\r\n\r\n" not in buffer:
                    if len(buffer) > self.config.max_line_bytes:
                        await self._http_error(
                            writer,
                            EdgeError(protocol.OVERSIZED, "headers too large"),
                            keep_alive=False,
                        )
                        return
                    chunk = await self._read_some(reader)
                    if not chunk:
                        return
                    buffer += chunk
                _HTTP_REQUESTS.inc()
                header_blob, _, _rest = bytes(buffer).partition(b"\r\n\r\n")
                del buffer[: len(header_blob) + 4]
                request_line, *header_lines = header_blob.split(b"\r\n")
                try:
                    method, target, version = request_line.decode("latin-1").split(
                        " ", 2
                    )
                except ValueError:
                    await self._http_error(
                        writer,
                        EdgeError(protocol.MALFORMED, "bad HTTP request line"),
                        keep_alive=False,
                    )
                    return
                headers = {}
                for header_line in header_lines:
                    name, _, value = header_line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                keep_alive = version.strip().upper() != "HTTP/1.0"
                connection = headers.get("connection", "").lower()
                if connection == "close":
                    keep_alive = False
                elif connection == "keep-alive":
                    keep_alive = True
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    await self._http_error(
                        writer,
                        EdgeError(protocol.MALFORMED, "bad Content-Length"),
                        keep_alive=False,
                    )
                    return
                if length > self.config.max_line_bytes:
                    # Answered, not reset — but the unread body poisons
                    # the stream, so this exchange is the connection's
                    # last.
                    await self._http_error(
                        writer,
                        EdgeError(
                            protocol.OVERSIZED,
                            f"body exceeds {self.config.max_line_bytes} bytes",
                        ),
                        keep_alive=False,
                    )
                    return
                while len(buffer) < length:
                    chunk = await self._read_some(reader)
                    if not chunk:
                        return
                    buffer += chunk
                body = bytes(buffer[:length])
                del buffer[:length]
                consumed = await self._http_route(
                    writer, method, target, body, keep_alive, headers
                )
                if consumed or not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _http_route(
        self,
        writer,
        method: str,
        target: str,
        body: bytes,
        keep_alive: bool,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        path = target.split("?", 1)[0]
        op = _HTTP_ROUTES.get(path)
        if op is not None and method in (protocol.OPS[op].http, "POST"):
            if op == protocol.READ:
                await self._http_read(writer, body, keep_alive)
            else:
                await self._http_op(
                    writer, op, body if method == "POST" else b"", keep_alive, headers
                )
            return
        if method == "POST" and path.startswith("/v1/"):
            family = path.split("/")[2]
            verbs = sorted(
                name.partition(".")[2] for name in _HTTP_ROUTES.values()
                if name.startswith(family + ".")
            )
            if verbs and path.startswith(f"/v1/{family}/"):
                _ERRORS.inc()
                await self._http_error(
                    writer,
                    EdgeError(
                        protocol.UNKNOWN_OP,
                        f"no {family} route {target}; verbs: {', '.join(verbs)}",
                    ),
                    keep_alive,
                )
                return
        if method == "GET" and path in ("/healthz", "/metrics"):
            status, content_type, blob = self._status_body(path)
            await self._http_write(writer, status, content_type, blob, keep_alive)
            return
        if method == "GET" and path == "/v1/stream":
            # The SSE response has no length; it owns the connection
            # until the stream ends, so this exchange is the last.
            await self._http_stream(writer, target, headers)
            return True
        if method == "GET" and path == "/v1/rollup":
            await self._http_rollup(writer, target, keep_alive)
            return
        _ERRORS.inc()
        await self._http_error(
            writer,
            EdgeError(
                protocol.UNKNOWN_OP, f"no route {method} {target}; try {_ROUTE_HINT}"
            ),
            keep_alive,
        )

    async def _http_read(self, writer, body: bytes, keep_alive: bool) -> None:
        started = time.perf_counter()
        try:
            payload = protocol.decode_line(body)
        except EdgeError as error:
            _ERRORS.inc()
            await self._http_error(writer, error, keep_alive)
            return
        decode_s = time.perf_counter() - started
        answer = await self._route_read(payload, payload.get("id"))
        started = time.perf_counter()
        blob = json.dumps(answer, separators=(",", ":")).encode("utf-8")
        _CPU_US.observe((decode_s + time.perf_counter() - started) * 1e6)
        await self._http_write(
            writer, _http_status(answer), "application/json", blob, keep_alive
        )

    async def _http_op(
        self,
        writer,
        op: str,
        body: bytes,
        keep_alive: bool,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """The HTTP face of a control op: same funnel, typed answers.

        The token travels as an ``X-Admin-Token`` header (or a ``token``
        field in the JSON body); the answer is the wire payload of the
        equivalent NDJSON op, status-mapped through
        :data:`~repro.edge.protocol.HTTP_STATUS`.
        """
        payload: Dict[str, Any] = {}
        if body.strip():
            try:
                payload = protocol.decode_line(body)
            except EdgeError as error:
                _ERRORS.inc()
                await self._http_error(writer, error, keep_alive)
                return
        payload["op"] = op
        header_token = (headers or {}).get("x-admin-token")
        if header_token is not None and "token" not in payload:
            payload["token"] = header_token
        answer = await self._execute(op, payload, payload.get("id"))
        await self._http_respond(writer, _http_status(answer), answer, keep_alive)

    async def _http_stream(
        self,
        writer,
        target: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        """``GET /v1/stream`` — the SSE face of the subscription plane.

        Query parameters: ``metrics`` (comma-separated name prefixes),
        ``kinds`` (comma-separated event kinds), ``queue`` (bound),
        ``heartbeat`` (seconds), ``limit`` (end the stream after this
        many events — 0, the default, streams until either side goes
        away).  The response is ``text/event-stream`` with no
        Content-Length and ``Connection: close``: the stream *is* the
        rest of the connection.

        A reconnect carrying ``Last-Event-ID`` (the standard SSE resume
        header; our ids are the hub sequence numbers) replays retained
        events past that id from the hub's replay ring before going
        live; history that fell off the ring is announced with a typed
        ``notice`` event (``code: "gap"``) instead of being skipped
        silently.  Non-integer ids are ignored (fresh stream).
        """
        query = parse_qs(urlsplit(target).query)

        def csv(key):
            values = [v for raw in query.get(key, []) for v in raw.split(",") if v]
            return values or None

        try:
            queue_raw = query.get("queue")
            queue = clamp_queue(
                int(queue_raw[0]) if queue_raw else None, self.config.stream.queue
            )
            heartbeat_s = float(
                query.get("heartbeat", [self.config.stream.heartbeat_s])[0]
            )
            limit = int(query.get("limit", ["0"])[0])
            if heartbeat_s <= 0 or limit < 0:
                raise ValueError("heartbeat must be > 0 and limit >= 0")
        except ValueError as error:
            _ERRORS.inc()
            await self._http_error(
                writer, EdgeError(protocol.INVALID, str(error)), keep_alive=False
            )
            return
        loop = asyncio.get_running_loop()
        flag = asyncio.Event()
        sub = self.plane.hub.subscribe(
            kinds=csv("kinds"),
            metrics=csv("metrics"),
            queue=queue,
            notify=lambda: loop.call_soon_threadsafe(flag.set),
        )
        last_event_id: Optional[int] = None
        raw_last = (headers or {}).get("last-event-id", "").strip()
        if raw_last:
            try:
                last_event_id = int(raw_last)
            except ValueError:
                last_event_id = None
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        sent = 0
        replayed_max = 0
        try:
            writer.write(head)
            _BYTES_OUT.inc(len(head))
            await writer.drain()
            if last_event_id is not None:
                # Subscribe-then-replay: the subscription was registered
                # above, so anything published from here on is queued —
                # the replay covers the disconnect window and the live
                # loop drops the overlap by sequence number.
                events, gap = self.plane.hub.replay_since(
                    last_event_id, sub.matches
                )
                if gap:
                    blob = format_sse(
                        {
                            "event": "notice",
                            "sub": sub.id,
                            "code": "gap",
                            "resume": last_event_id,
                        }
                    )
                    writer.write(blob)
                    _BYTES_OUT.inc(len(blob))
                for event in events:
                    record = event.to_wire()
                    record["sub"] = sub.id
                    record["replay"] = True
                    blob = format_sse(record)
                    writer.write(blob)
                    _BYTES_OUT.inc(len(blob))
                    replayed_max = event.seq
                    sent += 1
                    if limit and sent >= limit:
                        break
                await writer.drain()
                if limit and sent >= limit:
                    return
            while not (self._closing or sub.closed):
                try:
                    await asyncio.wait_for(flag.wait(), timeout=heartbeat_s)
                    flag.clear()
                except asyncio.TimeoutError:
                    blob = format_sse({"event": "heartbeat", "sub": sub.id})
                    writer.write(blob)
                    _BYTES_OUT.inc(len(blob))
                    await writer.drain()
                    continue
                for event in sub.poll():
                    if event.seq <= replayed_max:
                        continue  # already sent during the resume replay
                    record = event.to_wire()
                    record["sub"] = sub.id
                    blob = format_sse(record)
                    writer.write(blob)
                    _BYTES_OUT.inc(len(blob))
                    sent += 1
                    if limit and sent >= limit:
                        break
                await writer.drain()
                if limit and sent >= limit:
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # subscriber went away; the finally drops the subscription
        except asyncio.CancelledError:
            pass
        finally:
            self.plane.hub.unsubscribe(sub)

    async def _http_rollup(self, writer, target: str, keep_alive: bool) -> None:
        """``GET /v1/rollup`` — sealed time-series windows as JSON.

        Query parameters: ``metric`` (comma-separated exact names;
        default all series), ``last`` (newest n windows per series) and
        ``tier`` (``fine`` — the default — or ``coarse``, the
        downsampled long-retention ring).
        """
        query = parse_qs(urlsplit(target).query)
        names = [
            name for raw in query.get("metric", []) for name in raw.split(",") if name
        ] or None
        try:
            last_raw = query.get("last")
            last = int(last_raw[0]) if last_raw else None
            if last is not None and last < 1:
                raise ValueError("last must be >= 1")
            tier_raw = query.get("tier")
            tier = tier_raw[0] if tier_raw else "fine"
            if tier not in ROLLUP_TIERS:
                raise ValueError(
                    f"tier must be one of {ROLLUP_TIERS}, not {tier!r}"
                )
        except ValueError as error:
            _ERRORS.inc()
            await self._http_error(
                writer, EdgeError(protocol.INVALID, str(error)), keep_alive
            )
            return
        body = self.plane.rollup_snapshot(names=names, last=last, tier=tier)
        await self._http_respond(writer, 200, body, keep_alive)

    def _status_body(self, target: str) -> Tuple[int, str, bytes]:
        """Render (or re-serve) a status route, cached ``status_cache_s``."""
        cached = self._status_cache.get(target)
        now = time.monotonic()
        if cached is not None and now - cached[0] < self.config.status_cache_s:
            return cached[1], cached[2], cached[3]
        if target == "/healthz":
            shards = self.pool.health()
            all_healthy = all(s["state"] == "healthy" for s in shards)
            status = 200 if all_healthy else 503
            content_type = "application/json"
            blob = json.dumps(
                {
                    "status": "ok" if all_healthy else "degraded",
                    "draining": self._closing,
                    "shards": shards,
                },
                separators=(",", ":"),
            ).encode("utf-8")
        else:
            status = 200
            content_type = "text/plain; version=0.0.4"
            # Per-state shard breakdown, every lifecycle state present
            # (zeroes included) so scrapers see a stable label set and a
            # fleet health check can tell draining from quarantined.
            by_state = {state.value: 0 for state in ShardState}
            for entry in self.pool.health():
                by_state[entry["state"]] = by_state.get(entry["state"], 0) + 1
            labelled = {
                "edge.shards": {
                    f'state="{state}"': count for state, count in by_state.items()
                }
            }
            blob = metrics_text(labelled=labelled).encode("utf-8")
        if self.config.status_cache_s > 0.0:
            self._status_cache[target] = (now, status, content_type, blob)
        return status, content_type, blob

    async def _http_error(
        self, writer, error: EdgeError, keep_alive: bool
    ) -> None:
        await self._http_respond(
            writer,
            protocol.HTTP_STATUS.get(error.code, 500),
            protocol.error_payload(None, error),
            keep_alive,
        )

    async def _http_respond(
        self, writer, status: int, payload: Mapping[str, Any], keep_alive: bool
    ) -> None:
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        await self._http_write(writer, status, "application/json", blob, keep_alive)

    async def _http_write(
        self, writer, status: int, content_type: str, blob: bytes, keep_alive: bool
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(blob)}\r\n"
        )
        if status == 503:
            head += "Retry-After: 1\r\n"
        head += (
            "Connection: keep-alive\r\n\r\n"
            if keep_alive
            else "Connection: close\r\n\r\n"
        )
        data = head.encode("latin-1") + blob
        writer.write(data)
        _BYTES_OUT.inc(len(data))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class EdgeServerThread:
    """A running :class:`EdgeServer` on a background event loop.

    The bridge between the asyncio server and synchronous callers (CLI,
    tests, benchmarks)::

        with EdgeServerThread(EdgeConfig(shards=2, port=0)) as edge:
            client = EdgeClient(edge.host, edge.port)
            ...

    ``start()`` blocks until the pool is probed and the socket is bound;
    ``stop()`` drains gracefully.
    """

    def __init__(self, config: EdgeConfig = EdgeConfig()) -> None:
        self.config = config
        self.server: Optional[EdgeServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self.server is None or self.server.port is None:
            raise RuntimeError("edge server is not running")
        return self.server.port

    def start(self, timeout: float = 120.0) -> "EdgeServerThread":
        self._thread = threading.Thread(
            target=self._run, name="edge-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("edge server did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        server = EdgeServer(self.config)

        async def boot():
            try:
                await server.start()
                self.server = server
            except BaseException as error:  # noqa: BLE001 - reported to starter
                self._startup_error = error
            finally:
                self._started.set()

        loop.run_until_complete(boot())
        if self._startup_error is None:
            try:
                loop.run_forever()
            finally:
                loop.close()
        else:
            loop.close()

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        if self._loop is None or self.server is None:
            return
        done = threading.Event()

        def shutdown():
            task = asyncio.ensure_future(self.server.close(drain=drain))
            task.add_done_callback(lambda _t: (done.set(), self._loop.stop()))

        self._loop.call_soon_threadsafe(shutdown)
        done.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._loop = None

    def __enter__(self) -> "EdgeServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)
