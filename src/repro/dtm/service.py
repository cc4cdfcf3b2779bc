"""The live DTM loop: stream-plane events in, typed decisions out.

:class:`DtmService` is the closed loop the paper promises, run against a
real edge deployment instead of the offline solver: it subscribes to the
edge stream plane (``read`` events and ``alert.runaway_warning``),
maintains per-(stack, tier) thermal state from the push feed, runs the
:class:`~repro.network.dtm.DtmPolicy` hysteresis via
:func:`repro.network.dtm.decide`, and issues ``dtm.throttle`` /
``dtm.release`` decisions back to the server's
:class:`~repro.dtm.table.DtmTable` through :class:`DtmClient`.

Delivery discipline: decisions are **idempotent by round** on the server,
and the service additionally dedupes locally, so the loop is safe under
at-least-once event delivery — a dropped connection resubscribes and
replayed or re-observed rounds produce no double-throttle (the churn
tests pin this).  Every decision carries the measured event-to-decision
latency; the server counts misses against the deadline budget.

:class:`DtmClient` is the typed ``dtm.*`` client, one verb per method,
over any wire face — NDJSON, binary frames (JSON body) or HTTP (each
verb's route in :data:`repro.edge.protocol.OPS`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro import telemetry
from repro.edge import protocol
from repro.edge.client import (
    CONTROL_WIRES,
    WIRE_FORMATS,
    ControlClient,
    EdgeClient,
    RetryPolicy,
    StreamReceiver,
)
from repro.edge.protocol import EdgeError
from repro.network.dtm import DtmPolicy, decide
from repro.telemetry.runaway import ALERT_WARNING

_EVENTS = telemetry.counter(
    "dtm.service.events", unit="events", help="Stream events consumed by DtmService"
)
_DECISIONS = telemetry.counter(
    "dtm.service.decisions", unit="decisions", help="Decisions issued by DtmService"
)
_RECONNECTS = telemetry.counter(
    "dtm.service.reconnects",
    unit="reconnects",
    help="Stream resubscribes after a dropped connection",
)

class DtmClient(ControlClient):
    """Typed client for the ``dtm.*`` control plane, over any wire.

    One verb per method::

        with DtmClient(host, port) as dtm:
            dtm.throttle(stack=3, tier=1, round_index=17)
            dtm.status()["status"]["scales"]
            dtm.decisions(since=0)

    Decisions are **not retried** by the client transport — they are
    idempotent by round on the server, so the caller (the service loop)
    simply reissues on the next event if a send fails.
    """

    def status(self) -> Dict[str, Any]:
        """Policy, standing scales and the exact decision accounting."""
        return self.call(protocol.DTM_STATUS)

    def throttle(
        self,
        stack: int,
        tier: int,
        round_index: int,
        latency_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Apply one throttle decision (idempotent by round)."""
        return self.call(
            protocol.DTM_THROTTLE,
            stack=stack,
            tier=tier,
            round=round_index,
            latency_ms=latency_ms,
        )

    def release(
        self,
        stack: int,
        tier: int,
        round_index: int,
        latency_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Apply one release decision (idempotent by round)."""
        return self.call(
            protocol.DTM_RELEASE,
            stack=stack,
            tier=tier,
            round=round_index,
            latency_ms=latency_ms,
        )

    def decisions(self, since: int = 0) -> Dict[str, Any]:
        """Tail the applied-decision log past sequence number ``since``."""
        return self.call(protocol.DTM_DECISIONS, since=since)

    def reset(self) -> Dict[str, Any]:
        """Drop every scale back to full power (tests and maintenance)."""
        return self.call(protocol.DTM_RESET)


@dataclass(frozen=True)
class DtmServiceConfig:
    """Knobs of the live DTM loop.

    Attributes:
        policy: The hysteresis controller (must match the server table's
            policy for the mirror to track exactly).
        deadline_ms: Decision-latency budget; each decision reports its
            measured event-to-decision latency and the server counts
            misses.
        wire: Wire face decisions ride (``ndjson`` / ``binary`` /
            ``http``).  The event subscription always rides a framed
            wire (``http`` decisions still subscribe over NDJSON).
        queue: Subscriber queue bound (``None`` takes the server
            default).
        metrics: Metric-name prefixes for the subscription filter
            (applies to ``metric`` events; ``read``/``alert`` events
            always flow).
    """

    policy: DtmPolicy = field(default_factory=DtmPolicy)
    deadline_ms: float = 50.0
    wire: str = "ndjson"
    queue: Optional[int] = None
    metrics: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.wire not in CONTROL_WIRES:
            raise ValueError(
                f"wire must be one of {CONTROL_WIRES}, not {self.wire!r}"
            )


class DtmService:
    """The stream-driven throttling loop against one edge deployment."""

    def __init__(
        self,
        host: str,
        port: int,
        config: Optional[DtmServiceConfig] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.config = config if config is not None else DtmServiceConfig()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stream: Optional[EdgeClient] = None
        self._receiver: Optional[StreamReceiver] = None
        self._decider = DtmClient(host, port, wire=self.config.wire)
        self._lock = threading.Lock()
        self._scales: Dict[Tuple[int, int], float] = {}
        self._last_round: Dict[Tuple[int, int], int] = {}
        self.events = 0
        self.decisions = 0
        self.throttles = 0
        self.releases = 0
        self.duplicates = 0
        self.deadline_misses = 0
        self.reconnects = 0
        self.errors = 0

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "DtmService":
        """Subscribe and start the decision loop thread."""
        self._subscribe()
        self._thread = threading.Thread(
            target=self._run, name="dtm-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Tear the loop down (the subscription dies with the socket)."""
        self._stop.set()
        stream = self._stream
        if stream is not None:
            stream.close()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self._decider.close()

    def __enter__(self) -> "DtmService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def kick(self) -> None:
        """Kill the stream socket (churn tests force a reconnect)."""
        stream = self._stream
        if stream is not None:
            stream.close()

    # ---------------------------------------------------------------- wiring

    def _subscribe(self) -> None:
        wire = self.config.wire if self.config.wire in WIRE_FORMATS else "ndjson"
        self._stream = EdgeClient(
            self.host,
            self.port,
            retry=RetryPolicy(attempts=1),
            wire=wire,
        )
        self._receiver = self._stream.subscribe(
            kinds=["read", "alert"],
            metrics=None if self.config.metrics is None else list(self.config.metrics),
            queue=self.config.queue,
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                event = self._receiver.next()
            except (EdgeError, OSError, ValueError):
                # ValueError covers reads on a socket file the kick (or
                # stop) already closed under the loop.
                if self._stop.is_set():
                    return
                self.reconnects += 1
                _RECONNECTS.inc()
                try:
                    time.sleep(0.05)
                    self._subscribe()
                except (EdgeError, OSError):
                    continue
                continue
            self._handle(event, time.perf_counter())

    # -------------------------------------------------------------- decisions

    def _handle(self, event: Dict[str, Any], t0: float) -> None:
        kind = event.get("event")
        if kind == "read":
            self.events += 1
            _EVENTS.inc()
            stack = event.get("stack")
            round_index = event.get("round")
            temps = event.get("temps_c")
            if not isinstance(stack, int) or not isinstance(round_index, int):
                return
            if not isinstance(temps, dict):
                return
            for tier_key in sorted(temps):
                try:
                    tier = int(tier_key)
                    reading = float(temps[tier_key])
                except (TypeError, ValueError):
                    continue
                scale = self._scales.get((stack, tier), 1.0)
                action, _ = decide(self.config.policy, scale, reading)
                if action is not None:
                    self._issue(stack, tier, round_index, action, t0)
            return
        if kind == "alert":
            self.events += 1
            _EVENTS.inc()
            if event.get("name") != ALERT_WARNING:
                return
            stack = event.get("stack")
            tier = event.get("tier")
            round_index = event.get("round")
            if (
                isinstance(stack, int)
                and isinstance(tier, int)
                and isinstance(round_index, int)
            ):
                # Early warning outranks the absolute thresholds: the
                # slope says this tier is running away, so back it off
                # now rather than waiting for throttle_c.
                self._issue(stack, tier, round_index, "throttle", t0)

    def _issue(
        self, stack: int, tier: int, round_index: int, action: str, t0: float
    ) -> None:
        key = (stack, tier)
        last = self._last_round.get(key)
        if last is not None and round_index <= last:
            return  # locally deduped; the server table would refuse it too
        latency_ms = (time.perf_counter() - t0) * 1e3
        try:
            if action == "throttle":
                answer = self._decider.throttle(
                    stack, tier, round_index, latency_ms=latency_ms
                )
            else:
                answer = self._decider.release(
                    stack, tier, round_index, latency_ms=latency_ms
                )
        except (EdgeError, OSError):
            self.errors += 1
            return  # next event re-decides from the standing mirror
        decision = answer.get("decision", {})
        with self._lock:
            self._last_round[key] = round_index
            # The server's standing scale is authoritative; syncing the
            # mirror from the ack keeps both sides exactly equal even
            # across a service restart against warm server state.
            if isinstance(decision.get("scale"), (int, float)):
                self._scales[key] = float(decision["scale"])
            self.decisions += 1
            _DECISIONS.inc()
            if not decision.get("applied", True):
                self.duplicates += 1
            elif action == "throttle":
                self.throttles += 1
            else:
                self.releases += 1
            if latency_ms > self.config.deadline_ms:
                self.deadline_misses += 1

    # ---------------------------------------------------------------- queries

    def stats(self) -> Dict[str, Any]:
        """Loop-side accounting (the server table holds the authority)."""
        with self._lock:
            return {
                "events": self.events,
                "decisions": self.decisions,
                "throttles": self.throttles,
                "releases": self.releases,
                "duplicates": self.duplicates,
                "deadline_misses": self.deadline_misses,
                "reconnects": self.reconnects,
                "errors": self.errors,
                "tiers": len(self._scales),
            }
