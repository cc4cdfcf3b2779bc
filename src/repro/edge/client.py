"""Typed clients for the edge protocol: sync sockets and asyncio.

:class:`EdgeClient` is the blocking client — one socket, one outstanding
operation at a time, the natural fit for scripts, tests and per-thread
benchmark workers.  :class:`AsyncEdgeClient` multiplexes: any number of
coroutines may await reads on one connection; a background reader task
matches pipelined answers to callers by ``id``.

Both speak either wire format — ``wire="ndjson"`` (the default,
line-delimited JSON) or ``wire="binary"`` (length-prefixed packed
frames; the server detects the format from the first byte, so no
handshake round-trip is spent negotiating).

Both retry **retryable** failures (``backpressure``, ``shard_down``)
with capped exponential backoff and raise
:class:`~repro.edge.protocol.EdgeError` once attempts are exhausted or
immediately for non-retryable codes.  A successful retry is visible in
:attr:`EdgeResult.attempts`.

Everything the two clients do besides I/O is written once, in
:class:`_ClientCore` and the helpers beside it: id minting, the
operation payloads, the retry loop, the answer-or-raise check and the
typed end-of-stream errors.  The blocking client is not a facade over
the asyncio one: a caller may close its socket from another thread to
wake a blocked :meth:`StreamReceiver.next`, and its stream hands over
the server's typed ``backpressure`` notice where a local drop-oldest
queue would lose events silently.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple, Union

from repro.edge import protocol
from repro.edge.protocol import EdgeError, EdgeResult
from repro.serve.requests import ReadRequest


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff-and-resend behaviour for retryable edge errors.

    ``attempts`` counts total tries (1 = never retry).  Waits grow as
    ``backoff_s * 2**n`` capped at ``max_backoff_s``.
    """

    attempts: int = 4
    backoff_s: float = 0.05
    max_backoff_s: float = 1.0

    def wait_s(self, attempt: int) -> float:
        return min(self.backoff_s * (2 ** attempt), self.max_backoff_s)


WIRE_FORMATS = ("ndjson", "binary")

#: What one read attempt comes back with: the answer, or what the
#: exchange raised.
_Outcome = Union[Dict[str, Any], EdgeError, OSError]


def _answer(answer: Dict[str, Any]) -> Dict[str, Any]:
    """``answer`` when it reports success; its typed error raised otherwise."""
    if not answer.get("ok"):
        raise EdgeError.from_wire(answer.get("error", {}))
    return answer


def _eof(fragment: bytes, what: str) -> EdgeError:
    """The error for a connection that ended before a whole ``what``.

    Nothing read is a plain close.  A fragment means the server died
    mid-message: typed and retryable ``closed``, never a decode crash.
    """
    if not fragment:
        return EdgeError(protocol.SHARD_DOWN, "connection closed by server")
    return EdgeError(
        protocol.CLOSED, f"connection closed mid-{what} by server", retryable=True
    )


def _decode_line(line: bytes) -> Dict[str, Any]:
    """One NDJSON line off the wire; a line cut short by EOF is typed."""
    if not line.endswith(b"\n"):
        raise _eof(line, "response")
    return protocol.decode_line(line)


class _ClientCore:
    """What :class:`EdgeClient` and :class:`AsyncEdgeClient` share."""

    #: Prefix of the string ids minted for NDJSON.
    _id_prefix = "c"

    def __init__(self, host: str, port: int, retry: RetryPolicy, wire: str) -> None:
        if wire not in WIRE_FORMATS:
            raise ValueError(f"wire must be one of {WIRE_FORMATS}, not {wire!r}")
        self.host = host
        self.port = port
        self.retry = retry
        self.wire = wire
        self._ids = itertools.count(1)

    def _next_id(self):
        # Packed binary frames carry integer ids; NDJSON keeps the
        # readable string form.
        n = next(self._ids)
        return n if self.wire == "binary" else f"{self._id_prefix}{n}"

    def _encode(self, payload: Dict[str, Any]) -> bytes:
        if self.wire == "binary":
            return protocol.encode_frame(payload)
        return protocol.encode(payload)

    def _subscribe_op(
        self,
        kinds: Optional[list],
        metrics: Optional[list],
        queue: Optional[int],
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"id": self._next_id(), "op": protocol.STREAM_SUBSCRIBE}
        if kinds is not None:
            payload["kinds"] = list(kinds)
        if metrics is not None:
            payload["metrics"] = list(metrics)
        if queue is not None:
            payload["queue"] = queue
        return payload

    def _unsubscribe_op(self, subscription: int) -> Dict[str, Any]:
        return {
            "id": self._next_id(),
            "op": protocol.STREAM_UNSUBSCRIBE,
            "subscription": subscription,
        }

    def _read_attempts(
        self,
        stack_id: int,
        request: ReadRequest,
        deadline_ms: Optional[float],
    ) -> Generator[Tuple[float, Dict[str, Any]], _Outcome, EdgeResult]:
        """The retry loop of one read, with the I/O left to the caller.

        Yields ``(wait_s, payload)`` per attempt; the caller waits
        ``wait_s``, exchanges ``payload`` and sends back the answer or
        the :class:`EdgeError` / :class:`OSError` the exchange raised.
        An ok answer returns its :class:`EdgeResult` (``attempts``
        counting the tries); a non-retryable error raises at once; a
        retryable one backs off until :attr:`retry` is spent, then
        raises.
        """
        wire = protocol.request_to_wire(request, deadline_ms=deadline_ms)
        error: Optional[EdgeError] = None
        for attempt in range(self.retry.attempts):
            outcome = yield (
                self.retry.wait_s(attempt - 1) if attempt else 0.0,
                {
                    "v": protocol.PROTOCOL_VERSION,
                    "id": self._next_id(),
                    "op": protocol.READ,
                    "stack": stack_id,
                    "request": wire,
                },
            )
            if isinstance(outcome, OSError):
                outcome = EdgeError(protocol.SHARD_DOWN, f"connection failed: {outcome}")
            elif not isinstance(outcome, EdgeError):
                if outcome.get("ok"):
                    return protocol.wire_to_edge_result(outcome, attempts=attempt + 1)
                outcome = EdgeError.from_wire(outcome.get("error", {}))
            if not outcome.retryable:
                raise outcome
            error = outcome
        raise error if error is not None else EdgeError(
            protocol.INTERNAL, "retries exhausted without an error"
        )


class EdgeClient(_ClientCore):
    """Blocking client for one edge server (NDJSON or binary frames)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        retry: RetryPolicy = RetryPolicy(),
        wire: str = "ndjson",
    ) -> None:
        super().__init__(host, port, retry, wire)
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._file = None

    # ---------------------------------------------------------------- wiring

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._file = self._sock.makefile("rb")

    def _ensure(self) -> None:
        if self._sock is None:
            self._connect()

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "EdgeClient":
        self._ensure()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _exchange(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one operation, return its answer; reconnect on a dead socket."""
        try:
            self._ensure()
            self._sock.sendall(self._encode(payload))
            while True:
                answer = self._read_payload()
                if answer.get("id") == payload["id"]:
                    return answer
                # Not ours (an id-less framing warning or a pushed
                # event); keep reading.
        except Exception:
            # The socket may hold half an answer; never reuse it.
            self.close()
            raise

    def _read_payload(self) -> Dict[str, Any]:
        """One pushed object or answer off the wire (either format)."""
        self._ensure()
        if self.wire == "ndjson":
            return _decode_line(self._file.readline())
        header = self._read_exactly(protocol.FRAME_HEADER_SIZE, b"")
        _version, kind, length = protocol.decode_frame_header(header)
        return protocol.decode_frame_body(kind, self._read_exactly(length, header))

    def _read_exactly(self, count: int, before: bytes) -> bytes:
        """``count`` bytes of the frame that began with ``before``."""
        blob = self._file.read(count)
        if len(blob) < count:
            raise _eof(before + blob, "frame")
        return blob

    # ------------------------------------------------------------------- ops

    def read(
        self,
        stack_id: int,
        request: ReadRequest,
        deadline_ms: Optional[float] = None,
    ) -> EdgeResult:
        """Serve one :class:`ReadRequest` against ``stack_id``'s shard.

        Retries retryable failures per the client's :class:`RetryPolicy`;
        raises :class:`EdgeError` when they are exhausted (or at once for
        non-retryable codes).
        """
        attempts = self._read_attempts(stack_id, request, deadline_ms)
        outcome: Optional[_Outcome] = None
        while True:
            try:
                wait_s, payload = attempts.send(outcome)
            except StopIteration as done:
                return done.value
            if wait_s:
                time.sleep(wait_s)
            try:
                outcome = self._exchange(payload)
            except (EdgeError, OSError) as error:
                outcome = error

    def ping(self) -> Dict[str, Any]:
        return _answer(self.raw({"op": protocol.PING}))

    def stats(self) -> Dict[str, Any]:
        return _answer(self.raw({"op": protocol.STATS}))

    def raw(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One arbitrary operation, no retries — protocol tests and chaos."""
        payload = dict(payload)
        payload.setdefault("id", self._next_id())
        return self._exchange(payload)

    def subscribe(
        self,
        kinds: Optional[list] = None,
        metrics: Optional[list] = None,
        queue: Optional[int] = None,
    ) -> "StreamReceiver":
        """Open a server-push subscription on this connection.

        Returns a :class:`StreamReceiver`.  While the subscription is
        live the connection belongs to the stream: pushed events
        interleave with answers, so issue reads from a *different*
        client and consume here with :meth:`StreamReceiver.next` /
        :meth:`StreamReceiver.take` until
        :meth:`StreamReceiver.unsubscribe`.
        """
        answer = _answer(self._exchange(self._subscribe_op(kinds, metrics, queue)))
        return StreamReceiver(self, answer["subscription"])


class StreamReceiver:
    """The consuming half of one :meth:`EdgeClient.subscribe` call.

    Yields pushed event objects (``{"event": ..., "seq": ..., "sub": ...}``
    — including ``heartbeat`` and the typed ``notice`` a slow consumer
    earns) until :meth:`unsubscribe`, which returns the server's final
    accounting (``dropped``).
    """

    def __init__(self, client: EdgeClient, subscription: int) -> None:
        self.client = client
        self.subscription = subscription
        self.closed = False

    def next(self) -> Dict[str, Any]:
        """Block for the next pushed event on this connection."""
        while True:
            payload = self.client._read_payload()
            if "event" in payload:
                return payload
            # An answer to someone else's op on this connection; with the
            # documented one-op-at-a-time discipline this does not happen,
            # but skipping is strictly safer than crashing the stream.

    def take(self, count: int, ignore: Tuple[str, ...] = ("heartbeat",)) -> list:
        """Collect ``count`` events, skipping kinds in ``ignore``."""
        events = []
        while len(events) < count:
            event = self.next()
            if event.get("event") in ignore:
                continue
            events.append(event)
        return events

    def unsubscribe(self) -> Dict[str, Any]:
        """End the subscription; returns the ack (with ``dropped``)."""
        if self.closed:
            return {"ok": True, "subscription": self.subscription, "dropped": 0}
        self.closed = True
        return _answer(
            self.client._exchange(self.client._unsubscribe_op(self.subscription))
        )

    def __enter__(self) -> "StreamReceiver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.unsubscribe()


#: Wires the control clients speak; the data wires plus the HTTP adapter.
CONTROL_WIRES = ("ndjson", "binary", "http")
ADMIN_WIRES = CONTROL_WIRES


class ControlClient:
    """Typed client for the edge's control ops, over any wire.

    ``wire`` may be ``"ndjson"``, ``"binary"`` (the op rides a JSON-body
    frame) or ``"http"`` (the op's route in
    :data:`~repro.edge.protocol.OPS`; a ``token`` also rides the
    ``X-Admin-Token`` header).  :meth:`call` runs one op; subclasses add
    one method per verb.  Control ops are **not retried**: a reshape is
    not idempotent, so a failure surfaces to the caller instead of being
    resent.
    """

    #: Socket timeout when the caller gives none.
    default_timeout_s = 30.0

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        wire: str = "ndjson",
        timeout_s: Optional[float] = None,
    ) -> None:
        if wire not in CONTROL_WIRES:
            raise ValueError(f"wire must be one of {CONTROL_WIRES}, not {wire!r}")
        self.host = host
        self.port = port
        self.token = token
        self.wire = wire
        self.timeout_s = self.default_timeout_s if timeout_s is None else timeout_s
        self._client: Optional[EdgeClient] = None
        if wire in WIRE_FORMATS:
            self._client = EdgeClient(
                host,
                port,
                timeout_s=self.timeout_s,
                retry=RetryPolicy(attempts=1),
                wire=wire,
            )

    def close(self) -> None:
        if self._client is not None:
            self._client.close()

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Run ``op`` with the non-``None`` ``fields``; raises typed failures."""
        payload: Dict[str, Any] = {"op": op}
        payload.update({k: v for k, v in fields.items() if v is not None})
        if self.token is not None:
            payload["token"] = self.token
        if self.wire == "http":
            return _answer(self._http_call(op, payload))
        return _answer(self._client.raw(payload))

    def _http_call(self, op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        import http.client
        import json

        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["X-Admin-Token"] = self.token
        method = protocol.OPS[op].http
        body = None
        if method == "POST":
            body = json.dumps(
                {k: v for k, v in payload.items() if k != "op"},
                separators=(",", ":"),
            ).encode("utf-8")
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(
                method, protocol.http_path(op), body=body, headers=headers
            )
            blob = connection.getresponse().read()
        finally:
            connection.close()
        return protocol.decode_line(blob)


class AdminClient(ControlClient):
    """Typed client for the ``admin.*`` control plane, over any wire.

    One verb per method::

        with AdminClient(host, port, token="s3cret") as admin:
            admin.scale(4)              # reshape the pool
            admin.drain_shard(3)        # drain + remove one shard
            admin.restart()             # rolling restart, one shard at a time
            admin.status()["status"]    # topology, generation, health
    """

    default_timeout_s = 120.0  # reshapes drain shards and spawn processes

    def status(self) -> Dict[str, Any]:
        """Topology, ring generation, spares and per-shard health."""
        return self.call(protocol.ADMIN_STATUS)

    def scale(self, shards: int) -> Dict[str, Any]:
        """Reshape the pool to ``shards`` active shards."""
        return self.call(protocol.ADMIN_SCALE, shards=shards)

    def drain_shard(self, shard: int) -> Dict[str, Any]:
        """Drain one shard's in-flight reads, then remove it."""
        return self.call(protocol.ADMIN_DRAIN_SHARD, shard=shard)

    def restart(self, shard: Optional[int] = None) -> Dict[str, Any]:
        """Rolling restart (or recycle just ``shard`` when given)."""
        return self.call(protocol.ADMIN_RESTART, shard=shard)


class AsyncEdgeClient(_ClientCore):
    """Asyncio edge client; pipelines any number of concurrent reads."""

    _id_prefix = "a"

    def __init__(
        self,
        host: str,
        port: int,
        retry: RetryPolicy = RetryPolicy(),
        wire: str = "ndjson",
    ) -> None:
        super().__init__(host, port, retry, wire)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[Any, "asyncio.Future[Dict[str, Any]]"] = {}
        self._subscriptions: Dict[int, "asyncio.Queue[Dict[str, Any]]"] = {}
        self._reader_task: Optional["asyncio.Task"] = None
        self._write_lock: Optional[asyncio.Lock] = None

    async def connect(self) -> "AsyncEdgeClient":
        # asyncio's default 64 KiB line limit would drop any longer answer;
        # size it from the longest line the protocol allows.
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=protocol.MAX_LINE_BYTES
        )
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
        self._fail_pending(EdgeError(protocol.CLOSED, "client closed"))

    async def __aenter__(self) -> "AsyncEdgeClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _fail_pending(self, error: EdgeError) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _read_payload(self) -> Dict[str, Any]:
        """One pushed object or answer off the wire (either format)."""
        if self.wire == "ndjson":
            return _decode_line(await self._reader.readline())
        header = await self._read_exactly(protocol.FRAME_HEADER_SIZE, b"")
        _version, kind, length = protocol.decode_frame_header(header)
        return protocol.decode_frame_body(kind, await self._read_exactly(length, header))

    async def _read_exactly(self, count: int, before: bytes) -> bytes:
        """``count`` bytes of the frame that began with ``before``."""
        try:
            return await self._reader.readexactly(count)
        except asyncio.IncompleteReadError as error:
            raise _eof(before + error.partial, "frame") from None

    async def _read_loop(self) -> None:
        error = EdgeError(protocol.SHARD_DOWN, "connection closed by server")
        try:
            while True:
                answer = await self._read_payload()
                if "event" in answer and "id" not in answer:
                    queue = self._subscriptions.get(answer.get("sub"))
                    if queue is not None:
                        self._offer(queue, answer)
                    continue
                future = self._pending.pop(answer.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(answer)
        except EdgeError as ended:
            # The stream ended or broke the codec: every waiter gets the
            # typed reason, as a blocking client's caller would.
            error = ended
        except Exception:  # noqa: BLE001 - connection-level failure
            pass
        finally:
            # Tear the dead connection down *here*, not lazily: the next
            # ``_exchange`` must see ``_writer is None`` and reconnect
            # rather than write into a socket the server already closed.
            writer, self._writer = self._writer, None
            self._reader = None
            if writer is not None:
                try:
                    writer.close()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
            self._fail_pending(error)
            subscriptions, self._subscriptions = self._subscriptions, {}
            for sub_id, queue in subscriptions.items():
                # Tell each subscription consumer the connection is gone.
                self._offer(
                    queue, {"event": "notice", "sub": sub_id, "code": protocol.CLOSED}
                )

    @staticmethod
    def _offer(queue: "asyncio.Queue", event: Dict[str, Any]) -> None:
        """Queue ``event`` for its subscription, dropping the oldest if full.

        The local queue is bounded like the server side, so a paused
        consumer cannot grow the client without bound (the server's own
        drop accounting still produces the typed ``notice``).
        """
        while True:
            try:
                queue.put_nowait(event)
                return
            except asyncio.QueueFull:
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:
                    pass

    async def _exchange(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self._writer is None:
            await self.connect()
        future = asyncio.get_running_loop().create_future()
        self._pending[payload["id"]] = future
        try:
            async with self._write_lock:
                self._writer.write(self._encode(payload))
                await self._writer.drain()
        except OSError:
            self._pending.pop(payload["id"], None)
            raise
        return await future

    async def read(
        self,
        stack_id: int,
        request: ReadRequest,
        deadline_ms: Optional[float] = None,
    ) -> EdgeResult:
        """Serve one :class:`ReadRequest`; retries as :meth:`EdgeClient.read`."""
        attempts = self._read_attempts(stack_id, request, deadline_ms)
        outcome: Optional[_Outcome] = None
        while True:
            try:
                wait_s, payload = attempts.send(outcome)
            except StopIteration as done:
                return done.value
            if wait_s:
                await asyncio.sleep(wait_s)
            try:
                outcome = await self._exchange(payload)
            except (EdgeError, OSError) as error:
                outcome = error

    async def ping(self) -> Dict[str, Any]:
        return _answer(await self._exchange({"id": self._next_id(), "op": protocol.PING}))

    # ------------------------------------------------------------- streaming

    async def subscribe(
        self,
        kinds: Optional[list] = None,
        metrics: Optional[list] = None,
        queue: Optional[int] = None,
    ) -> "AsyncSubscription":
        """Open a server-push subscription multiplexed on this connection.

        Pushed events are routed off the shared reader into a per-
        subscription queue, so reads and other ops keep working
        concurrently.  Iterate the returned handle (``async for``) or
        await :meth:`AsyncSubscription.next`.
        """
        answer = _answer(
            await self._exchange(self._subscribe_op(kinds, metrics, queue))
        )
        sub_id = answer["subscription"]
        queue_obj: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue(
            maxsize=answer["queue"]
        )
        self._subscriptions[sub_id] = queue_obj
        return AsyncSubscription(self, sub_id, queue_obj)

    async def unsubscribe(self, subscription: int) -> Dict[str, Any]:
        """End a subscription; returns the ack (with ``dropped``)."""
        answer = await self._exchange(self._unsubscribe_op(subscription))
        self._subscriptions.pop(subscription, None)
        return _answer(answer)


class AsyncSubscription:
    """Consuming handle for one :meth:`AsyncEdgeClient.subscribe`."""

    def __init__(
        self,
        client: AsyncEdgeClient,
        subscription: int,
        queue: "asyncio.Queue[Dict[str, Any]]",
    ) -> None:
        self.client = client
        self.subscription = subscription
        self._queue = queue
        self.closed = False

    async def next(self) -> Dict[str, Any]:
        """Await the next pushed event for this subscription.

        When the connection dies mid-subscription the final event is a
        synthesized ``notice`` with ``{"code": "closed"}``.
        """
        return await self._queue.get()

    async def take(
        self, count: int, ignore: Tuple[str, ...] = ("heartbeat",)
    ) -> list:
        """Collect ``count`` events, skipping kinds in ``ignore``."""
        events = []
        while len(events) < count:
            event = await self.next()
            if event.get("event") in ignore:
                continue
            events.append(event)
        return events

    async def unsubscribe(self) -> Dict[str, Any]:
        if self.closed:
            return {"ok": True, "subscription": self.subscription, "dropped": 0}
        self.closed = True
        return await self.client.unsubscribe(self.subscription)

    async def __aenter__(self) -> "AsyncSubscription":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.unsubscribe()
