"""The batch evaluation engine behind the serving queue.

``ReadEngine.execute`` takes a coalesced batch of heterogeneous
:class:`~repro.serve.requests.ReadRequest` objects and answers all of
them with **one** vectorised :func:`repro.batch.read_paired` call: each
request expands into unit conversions ``(tier, temperature, supply)``,
cache hits are peeled off, the remaining misses become one flat
:class:`~repro.batch.EnvironmentGrid`, and the results are reassembled
per request — instead of N scalar ``PTSensor.read()`` calls.

The engine is synchronous and clock-agnostic (``now`` is an argument),
which is why the same instance serves both the threaded
:class:`~repro.serve.service.SensorReadService` (real clock) and the
deterministic virtual-time load generator.

Fault handling mirrors the scalar seams: an active
:class:`~repro.faults.FaultPlan` perturbs each unit conversion's
environment before the oscillators see it and each published reading
after calibration, and a faulted tier *degrades* its responses
(``quality="degraded"``, cache bypassed) — the server never crashes and
never caches faulted data.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter as TallyCounter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.telemetry.stream import HUB as _STREAM_HUB
from repro.batch.paired import PairedReadings, read_paired
from repro.core.errors import SensorError
from repro.core.sensor import PTSensor
from repro.faults.runtime import active_injector
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.requests import (
    ReadRequest,
    ReadResult,
    RequestKind,
    ResultStatus,
    TierReading,
)
from repro.units import celsius_to_kelvin

_REQUESTS = telemetry.counter(
    "serve.requests", unit="requests", help="Requests answered by the serving engine"
)
_CONVERSIONS = telemetry.counter(
    "serve.conversions",
    unit="conversions",
    help="Unit conversions evaluated through the coalesced batch path",
)
_BATCHES = telemetry.counter(
    "serve.batches", unit="batches", help="Coalesced batches evaluated"
)
_BATCH_SIZE = telemetry.histogram(
    "serve.batch_size", unit="requests", help="Requests coalesced per batch"
)
_DEGRADED = telemetry.counter(
    "serve.degraded",
    unit="requests",
    help="Requests answered with degraded quality (faulted tier or "
    "non-converged calibration)",
)


class _Job:
    """One unit conversion a request expands into."""

    __slots__ = (
        "request_index", "tier", "temp_c", "vdd", "cache_key", "reading", "error"
    )

    def __init__(self, request_index: int, tier: int, temp_c: float, vdd: float):
        self.request_index = request_index
        self.tier = tier
        self.temp_c = temp_c
        self.vdd = vdd
        self.cache_key: Optional[Tuple] = None
        self.reading: Optional[TierReading] = None
        self.error: Optional[str] = None  # the kernel refused this conversion


class ReadEngine:
    """Coalesced evaluation of request batches against one sensor stack.

    Args:
        sensors: ``tier -> PTSensor`` of the served stack; one uniform
            design (validated via :meth:`PTSensor.design_key`).
        cache: Result cache, or ``None`` to serve every request cold.
        admission: Controller that accounts deadline shedding; ``None``
            disables shedding accounting (requests are still shed).
        deterministic: Run conversions with deterministic counter phases
            (the serving default).  Caching requires it — a noisy
            conversion consumes private rng state and must never be
            replayed — so with ``deterministic=False`` the cache is
            bypassed entirely.
    """

    def __init__(
        self,
        sensors: Mapping[int, PTSensor],
        cache: Optional[ResultCache] = None,
        admission: Optional[AdmissionController] = None,
        deterministic: bool = True,
    ) -> None:
        if not sensors:
            raise ValueError("need at least one tier sensor")
        self.sensors: Dict[int, PTSensor] = dict(sensors)
        self.tiers: Tuple[int, ...] = tuple(sorted(self.sensors))
        reference = self.sensors[self.tiers[0]]
        reference_key = reference.design_key()
        for sensor in self.sensors.values():
            if sensor.design_key() != reference_key:
                raise ValueError(
                    "the serving engine coalesces one design; got mixed "
                    "sensor designs across tiers"
                )
        self.nominal_vdd = reference.technology.vdd
        self.cache = cache
        self.admission = admission
        self.deterministic = deterministic
        self._lock = threading.Lock()
        self._batches = 0
        self._batch_sizes: TallyCounter = TallyCounter()

    # ------------------------------------------------------------- expansion

    def _expand(self, request: ReadRequest) -> List[Tuple[int, float]]:
        """The ``(tier, temp_c)`` unit conversions of one request."""
        if request.kind in (RequestKind.POINT_READ, RequestKind.VT_EXTRACT):
            return [(request.tier, request.temp_c)]
        if request.kind is RequestKind.TIER_SCAN:
            tiers = self.tiers if request.tiers is None else request.tiers
            return [(tier, request.temp_c) for tier in tiers]
        # STACK_POLL: every tier at its own temperature.
        temps = request.temps_c or {}
        return [(tier, temps.get(tier, request.temp_c)) for tier in self.tiers]

    # ------------------------------------------------------------ evaluation

    def execute(
        self, requests: Sequence[ReadRequest], now: float = 0.0
    ) -> List[ReadResult]:
        """Answer a coalesced batch of requests in one vectorised pass.

        Args:
            requests: The batch, in arrival order (rng consumption order
                matches a sequential scalar loop over the same order).
            now: Current service-clock time, used for deadline shedding
                and cache TTL accounting.

        Returns:
            One :class:`ReadResult` per request, aligned with the input.
            Malformed requests (unknown tier) and requests the kernel
            cannot convert (a temperature outside the sensor's range)
            come back as ``ERROR`` results; the batch's healthy requests
            are still served.
        """
        batch_size = len(requests)
        with telemetry.span("serve.batch", requests=batch_size) as trace:
            results: List[Optional[ReadResult]] = [None] * batch_size
            jobs: List[_Job] = []
            shed_count = 0

            injector = active_injector()
            shed_enabled = (
                self.admission is None or self.admission.policy.shed_expired
            )
            for index, request in enumerate(requests):
                if (
                    shed_enabled
                    and request.deadline_s is not None
                    and now > request.deadline_s
                ):
                    results[index] = ReadResult(
                        request=request,
                        status=ResultStatus.SHED,
                        batch_size=batch_size,
                    )
                    shed_count += 1
                    continue
                units = self._expand(request)
                unknown = [tier for tier, _ in units if tier not in self.sensors]
                if unknown:
                    results[index] = ReadResult(
                        request=request,
                        status=ResultStatus.ERROR,
                        batch_size=batch_size,
                        error=f"unknown tier(s) {unknown}; stack has {list(self.tiers)}",
                    )
                    continue
                vdd = self.nominal_vdd if request.vdd is None else request.vdd
                for tier, temp_c in units:
                    jobs.append(_Job(index, tier, temp_c, vdd))

            if shed_count and self.admission is not None:
                self.admission.record_shed(shed_count)

            # Cache peel-off (deterministic mode only; faulted tiers bypass
            # the cache in both directions so faults are never masked by —
            # or leaked into — cached data).
            misses: List[_Job] = []
            for job in jobs:
                request = requests[job.request_index]
                faulted = injector is not None and injector.faulted_now(job.tier)
                if self.cache is not None and self.deterministic and not faulted:
                    job.cache_key = self.cache.key(
                        job.tier, job.temp_c, job.vdd, request.assume_vdd
                    )
                    cached = self.cache.get(job.cache_key, now)
                    if cached is not None:
                        job.reading = dataclasses.replace(cached, cache_hit=True)
                        continue
                misses.append(job)

            if misses:
                self._evaluate(misses, requests, injector, now)

            self._assemble(requests, results, jobs, batch_size)

            # In-process streaming seam: while anything subscribes to the
            # process-wide hub (examples, notebooks, an embedded monitor),
            # publish each served reading.  One attribute read when idle.
            if _STREAM_HUB.active:
                for result in results:
                    if result is not None and result.readings:
                        _STREAM_HUB.publish("read", {
                            "source": "serve",
                            "status": result.status.value,
                            "temps_c": {
                                str(r.tier): r.temperature_c
                                for r in result.readings
                            },
                        })

            with self._lock:
                self._batches += 1
                self._batch_sizes[batch_size] += 1
            _REQUESTS.inc(batch_size)
            _CONVERSIONS.inc(len(misses))
            _BATCHES.inc()
            _BATCH_SIZE.observe(batch_size)
            trace.set(
                conversions=len(misses),
                cache_hits=len(jobs) - len(misses),
                shed=shed_count,
            )
            return results  # type: ignore[return-value]

    def _evaluate(
        self,
        misses: List[_Job],
        requests: Sequence[ReadRequest],
        injector,
        now: float,
    ) -> None:
        """Run the cache misses as one flat vectorised conversion batch."""
        sensors = [self.sensors[job.tier] for job in misses]
        temps_k = np.empty(len(misses))
        vdds = np.empty(len(misses))
        for i, job in enumerate(misses):
            env = sensors[i].physical_environment(
                celsius_to_kelvin(job.temp_c), job.vdd
            )
            if injector is not None:
                env = injector.perturb_environment(job.tier, env)
            temps_k[i] = env.temp_k
            vdds[i] = env.vdd

        # One assume_vdd per batch segment: split lazily only when mixed.
        assume_vdds = {requests[job.request_index].assume_vdd for job in misses}
        if len(assume_vdds) == 1:
            segments = [(misses, temps_k, vdds, assume_vdds.pop())]
        else:
            segments = []
            for assume_vdd in sorted(
                assume_vdds, key=lambda v: (v is not None, v)
            ):
                picks = [
                    i
                    for i, job in enumerate(misses)
                    if requests[job.request_index].assume_vdd == assume_vdd
                ]
                segments.append(
                    (
                        [misses[i] for i in picks],
                        temps_k[picks],
                        vdds[picks],
                        assume_vdd,
                    )
                )

        converted = [pair for segment in segments for pair in self._convert(*segment)]
        for segment_jobs, readings in converted:
            energy_total = readings.energy.total
            for i, job in enumerate(segment_jobs):
                converged = bool(readings.converged[i])
                reading = TierReading(
                    tier=job.tier,
                    temperature_c=float(readings.temperature_c[i]),
                    dvtn=float(readings.dvtn[i]),
                    dvtp=float(readings.dvtp[i]),
                    converged=converged,
                    quality="ok",
                    cache_hit=False,
                    conversion_time=float(readings.conversion_time[i]),
                    energy_j=float(energy_total[i]),
                )
                if injector is not None:
                    reading = injector.perturb_reading(job.tier, reading)
                    if injector.sensor_faulted_now(job.tier):
                        reading = _degrade(reading)
                if not converged:
                    reading = _degrade(reading)
                job.reading = reading
                if job.cache_key is not None and reading.quality == "ok":
                    self.cache.put(job.cache_key, reading, now)

    def _convert(
        self, jobs: List[_Job], temps_k, vdds, assume_vdd
    ) -> List[Tuple[List[_Job], PairedReadings]]:
        """``read_paired`` over ``jobs`` -> ``[(jobs, readings), ...]``.

        One kernel call when every lane converts.  When the kernel
        refuses the batch (a lane outside the sensor's range), the batch
        is halved until each refused lane stands alone; that lane keeps
        the error in ``job.error`` and fails only its own request.
        Noisy conversions draw their counter phases before the kernel
        can refuse, so the sensors' streams are rewound before the
        halves retry: draws stay in the order of a sequential loop.
        """
        sensors = [self.sensors[job.tier] for job in jobs]
        streams = (
            [] if self.deterministic
            else [(sensor, sensor._rng.bit_generator.state) for sensor in sensors]
        )
        try:
            readings = read_paired(
                sensors,
                temps_k,
                vdds,
                deterministic=self.deterministic,
                assume_vdd=assume_vdd,
            )
        except (SensorError, ValueError) as error:
            for sensor, state in streams:
                sensor._rng.bit_generator.state = state
            if len(jobs) == 1:
                jobs[0].error = f"{type(error).__name__}: {error}"
                return []
            half = len(jobs) // 2
            return self._convert(
                jobs[:half], temps_k[:half], vdds[:half], assume_vdd
            ) + self._convert(jobs[half:], temps_k[half:], vdds[half:], assume_vdd)
        return [(jobs, readings)]

    def _assemble(
        self,
        requests: Sequence[ReadRequest],
        results: List[Optional[ReadResult]],
        jobs: List[_Job],
        batch_size: int,
    ) -> None:
        """Fold per-job readings back into per-request results."""
        per_request: Dict[int, List[_Job]] = {}
        for job in jobs:
            per_request.setdefault(job.request_index, []).append(job)
        degraded_requests = 0
        for index, request in enumerate(requests):
            if results[index] is not None:
                continue
            request_jobs = per_request.get(index, [])
            error = next((job.error for job in request_jobs if job.error), None)
            if error is not None:
                results[index] = ReadResult(
                    request=request,
                    status=ResultStatus.ERROR,
                    batch_size=batch_size,
                    error=error,
                )
                continue
            readings = tuple(job.reading for job in request_jobs)
            cache_hits = sum(1 for r in readings if r.cache_hit)
            degraded = any(r.quality != "ok" for r in readings)
            if degraded:
                degraded_requests += 1
            results[index] = ReadResult(
                request=request,
                status=ResultStatus.DEGRADED if degraded else ResultStatus.OK,
                readings=readings,
                batch_size=batch_size,
                cache_hits=cache_hits,
            )
        if degraded_requests:
            _DEGRADED.inc(degraded_requests)

    # ------------------------------------------------------------ accounting

    def batch_size_histogram(self) -> Dict[int, int]:
        """``batch size -> batches`` tally since construction."""
        with self._lock:
            return dict(self._batch_sizes)

    @property
    def batches(self) -> int:
        """Total coalesced batches evaluated."""
        with self._lock:
            return self._batches


def _degrade(reading: TierReading) -> TierReading:
    return dataclasses.replace(reading, quality="degraded")
