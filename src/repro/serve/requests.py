"""Typed requests and results of the sensor-readout service.

A :class:`ReadRequest` is one question a client asks the monitored stack;
a :class:`ReadResult` is the service's answer, carrying one
:class:`TierReading` per tier the request touched plus the serving
metadata (batching, caching, latency) the load generator and access log
report on.

Four request kinds cover the paper's polling patterns:

``POINT_READ``
    One tier, one operating point — the bread-and-butter request.
``VT_EXTRACT``
    Same conversion, but the caller is after the extracted process point
    ``(dV_tn, dV_tp)`` rather than the temperature.
``TIER_SCAN``
    A subset of tiers (or the whole stack) at one shared condition.
``STACK_POLL``
    Every tier at its own junction temperature — the
    :class:`~repro.network.aggregator.StackMonitor` round, as a request.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple


class RequestKind(enum.Enum):
    """What a :class:`ReadRequest` asks of the stack."""

    POINT_READ = "point_read"
    VT_EXTRACT = "vt_extract"
    TIER_SCAN = "tier_scan"
    STACK_POLL = "stack_poll"


@dataclass(frozen=True)
class ReadRequest:
    """One client request against the serving stack.

    Build instances through the classmethod constructors
    (:meth:`point`, :meth:`vt`, :meth:`scan`, :meth:`poll`) — they fill
    the kind-dependent fields consistently.

    Attributes:
        kind: The request kind.
        temp_c: Operating (junction) temperature in Celsius; for
            ``STACK_POLL`` the default for tiers absent from ``temps_c``.
        tier: Target tier for ``POINT_READ`` / ``VT_EXTRACT``.
        tiers: Target tiers for ``TIER_SCAN``; ``None`` means every tier.
        temps_c: Per-tier temperatures for ``STACK_POLL``.
        vdd: True supply voltage (``None`` = nominal).
        assume_vdd: Supply the calibration logic assumes (DVFS setpoint);
            see :meth:`repro.core.sensor.PTSensor.read`.
        deadline_s: Absolute service-clock deadline.  A request still
            queued past its deadline is *shed* (admission control), never
            evaluated.

    Temperatures and supplies must be finite; a NaN or infinity raises
    ``ValueError`` here, before the request can reach a batch.
    """

    kind: RequestKind
    temp_c: float = 25.0
    tier: Optional[int] = None
    tiers: Optional[Tuple[int, ...]] = None
    temps_c: Optional[Mapping[int, float]] = None
    vdd: Optional[float] = None
    assume_vdd: Optional[float] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind in (RequestKind.POINT_READ, RequestKind.VT_EXTRACT):
            if self.tier is None:
                raise ValueError(f"{self.kind.value} requires a tier")
        if self.kind is not RequestKind.TIER_SCAN and self.tiers is not None:
            raise ValueError("tiers is a TIER_SCAN field")
        if self.kind is not RequestKind.STACK_POLL and self.temps_c is not None:
            raise ValueError("temps_c is a STACK_POLL field")
        for name in ("temp_c", "vdd", "assume_vdd"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.temps_c is not None:
            object.__setattr__(self, "temps_c", dict(self.temps_c))
            if not all(math.isfinite(c) for c in self.temps_c.values()):
                raise ValueError("temps_c entries must be finite")
        if self.tiers is not None:
            object.__setattr__(self, "tiers", tuple(self.tiers))

    @classmethod
    def point(
        cls,
        tier: int,
        temp_c: float,
        vdd: Optional[float] = None,
        assume_vdd: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> "ReadRequest":
        """One tier's temperature at one operating point."""
        return cls(
            kind=RequestKind.POINT_READ,
            tier=tier,
            temp_c=temp_c,
            vdd=vdd,
            assume_vdd=assume_vdd,
            deadline_s=deadline_s,
        )

    @classmethod
    def vt(
        cls,
        tier: int,
        temp_c: float,
        vdd: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> "ReadRequest":
        """One tier's extracted process point ``(dV_tn, dV_tp)``."""
        return cls(
            kind=RequestKind.VT_EXTRACT,
            tier=tier,
            temp_c=temp_c,
            vdd=vdd,
            deadline_s=deadline_s,
        )

    @classmethod
    def scan(
        cls,
        temp_c: float,
        tiers: Optional[Tuple[int, ...]] = None,
        vdd: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> "ReadRequest":
        """A set of tiers (default all) at one shared condition."""
        return cls(
            kind=RequestKind.TIER_SCAN,
            temp_c=temp_c,
            tiers=None if tiers is None else tuple(tiers),
            vdd=vdd,
            deadline_s=deadline_s,
        )

    @classmethod
    def poll(
        cls,
        temps_c: Mapping[int, float],
        default_temp_c: float = 25.0,
        vdd: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> "ReadRequest":
        """The full stack, each tier at its own junction temperature."""
        return cls(
            kind=RequestKind.STACK_POLL,
            temp_c=default_temp_c,
            temps_c=dict(temps_c),
            vdd=vdd,
            deadline_s=deadline_s,
        )


@dataclass(frozen=True)
class TierReading:
    """One tier's answer inside a :class:`ReadResult`.

    ``quality`` is ``"ok"`` for a clean converged conversion and
    ``"degraded"`` when an active fault targeted the tier or the
    self-calibration failed to converge — the serving twin of the stack
    monitor's graceful-degradation flags.
    """

    tier: int
    temperature_c: float
    dvtn: float
    dvtp: float
    converged: bool
    quality: str = "ok"
    cache_hit: bool = False
    conversion_time: float = 0.0
    energy_j: float = 0.0


class ResultStatus(enum.Enum):
    """Terminal state of a served request."""

    OK = "ok"
    DEGRADED = "degraded"
    SHED = "shed"
    ERROR = "error"


@dataclass(frozen=True)
class ReadResult:
    """The service's answer to one :class:`ReadRequest`.

    Attributes:
        request: The request this answers.
        status: ``OK``; ``DEGRADED`` when any tier reading is degraded;
            ``SHED`` when the deadline passed before evaluation (no
            readings); ``ERROR`` for malformed requests (unknown tier).
        readings: One :class:`TierReading` per touched tier, in request
            order.
        batch_size: Number of requests coalesced into the evaluation
            that produced this answer.
        cache_hits: How many of this request's tier readings were served
            from the result cache.
        error: Human-readable reason when ``status`` is ``ERROR``.
        enqueued_at: Service-clock time the request entered the queue.
        completed_at: Service-clock time the answer was published.
    """

    request: ReadRequest
    status: ResultStatus
    readings: Tuple[TierReading, ...] = field(default_factory=tuple)
    batch_size: int = 0
    cache_hits: int = 0
    error: Optional[str] = None
    enqueued_at: float = 0.0
    completed_at: float = 0.0

    @property
    def latency_s(self) -> float:
        """Queue wait plus evaluation time, in service-clock seconds."""
        return self.completed_at - self.enqueued_at

    @property
    def ok(self) -> bool:
        """Whether the request produced usable readings."""
        return self.status in (ResultStatus.OK, ResultStatus.DEGRADED)

    def reading_for(self, tier: int) -> TierReading:
        """The reading of one tier (raises ``KeyError`` if absent)."""
        for reading in self.readings:
            if reading.tier == tier:
                return reading
        raise KeyError(f"no reading for tier {tier}")
