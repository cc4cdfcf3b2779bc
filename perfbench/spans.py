"""Spans and counts around calls into each layer's public functions.

The traced run wraps the entry points the per-layer table names (see
README.md) from outside the program: each wrapper records a span
``(name, start, end, parent)`` in an in-memory list and, where the table
asks for a count, adds to a named counter.  Nothing is written until the
process ends, when :meth:`Recorder.dump` writes one JSON file per process.

Clocks: spans use ``time.monotonic`` (``CLOCK_MONOTONIC``), which every
process on the host shares, so spans from the load generator, the edge
process and the shard workers can be cut to one measured window.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent span or None]
        self.counts: Dict[str, List[float]] = {}  # name -> [(t, amount), ...] flat
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (a forked child starts from an empty buffer)."""
        self.spans = []
        self.counts = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``, stamped with the time."""
        self.counts.setdefault(name, []).extend((time.monotonic(), amount))

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``on_call(args, kwargs)`` runs first."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack = self._stack()
            span = [name, time.monotonic(), 0.0, stack[-1] if stack else None]
            self.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()

        return traced

    def hook(self, fn: Callable, on_call: Callable) -> Callable:
        """``fn`` wrapped so ``on_call(args, kwargs)`` runs first (no span)."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)

        return hooked

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call adds one to counter ``name`` (no span)."""
        return self.hook(fn, lambda args, kwargs: self.count(name))

    def dump(self, path: str) -> None:
        """Write the spans (parents as indices) and counters to ``path``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index.get(id(parent), -1)]
            for name, start, end, parent in self.spans
            if end > 0.0
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": rows, "counts": self.counts}, handle)


# --------------------------------------------------------------- the roles


def install_client(recorder: Recorder) -> None:
    """Load-generator side: the client codec (``edge.client``, ``edge.protocol``).

    The clients reach the codec through the ``protocol`` module object, so
    replacing the module attributes routes every client call through the
    wrappers.
    """
    from repro.edge import protocol

    for attribute in ("request_to_wire", "encode", "encode_frame"):
        setattr(protocol, attribute, recorder.wrap("client.encode", getattr(protocol, attribute)))
    for attribute in ("decode_line", "decode_frame_header", "decode_frame_body", "wire_to_edge_result"):
        setattr(protocol, attribute, recorder.wrap("client.decode", getattr(protocol, attribute)))


def install_edge(recorder: Recorder) -> None:
    """Edge process: the stream plane's per-read ingest (``edge.stream``)."""
    from repro.edge.stream import StreamPlane

    StreamPlane.ingest_read = recorder.wrap("edge.ingest", StreamPlane.ingest_read)


def install_worker(recorder: Recorder) -> None:
    """Shard worker: ``serve.scheduler``, ``serve.engine`` and ``batch``.

    Queue wait is measured at the two public boundaries a request crosses:
    ``SensorReadService.submit_many`` (enqueued) and ``ReadEngine.execute``
    (its batch starts, at the ``now`` the batcher passes in).  The engine
    and the kernels are reached through module globals, which are replaced
    in the modules that look them up.
    """
    from repro.batch import model, paired
    from repro.serve import engine
    from repro.serve.engine import ReadEngine
    from repro.serve.service import SensorReadService

    enqueued: Dict[int, float] = {}

    def on_submit(args, kwargs) -> None:
        now = time.monotonic()
        for request, _context in args[1]:
            enqueued[id(request)] = now

    def on_execute(args, kwargs) -> None:
        requests, now = args[1], args[2]
        for request in requests:
            queued_at = enqueued.pop(id(request), None)
            if queued_at is not None:
                recorder.count("serve.queue_wait_s", max(0.0, now - queued_at))

    def on_read_paired(args, kwargs) -> None:
        recorder.count("batch.lanes", len(args[0]))

    SensorReadService.submit_many = recorder.hook(SensorReadService.submit_many, on_submit)
    ReadEngine.execute = recorder.wrap("serve.execute", ReadEngine.execute, on_execute)
    engine.read_paired = recorder.wrap("batch.read_paired", engine.read_paired, on_read_paired)
    paired.calibrate_batch = recorder.wrap("batch.calibrate", paired.calibrate_batch)
    model.extract_process_batch = recorder.counted("batch.rounds", model.extract_process_batch)
    paired.ring_frequency_batch = recorder.counted("batch.frequency_calls", paired.ring_frequency_batch)
    model.oscillator_frequency_batch = recorder.counted(
        "batch.frequency_calls", model.oscillator_frequency_batch
    )


def install_onchip(recorder: Recorder) -> None:
    """The on-chip loop: ``thermal``, ``core``, ``readout``, ``tsv``, ``network``."""
    from repro.core import calibration, sensor
    from repro.core.sensor import PTSensor
    from repro.network import dtm
    from repro.network.aggregator import StackMonitor
    from repro.thermal import solver
    from repro.tsv import bus
    from repro.tsv.bus import TsvSensorBus

    solver.transient = recorder.wrap("thermal.step", solver.transient)
    PTSensor.read = recorder.wrap("core.read", PTSensor.read)
    calibration.extract_process = recorder.wrap(
        "core.extract",
        calibration.extract_process,
        lambda args, kwargs: recorder.count("core.rounds"),
    )
    calibration.estimate_temperature = recorder.wrap(
        "core.temperature", calibration.estimate_temperature
    )
    sensor.encode_frame = recorder.wrap("readout.frame", sensor.encode_frame)
    bus.decode_frame = recorder.wrap("readout.frame", bus.decode_frame)
    TsvSensorBus.collect = recorder.wrap("tsv.collect", TsvSensorBus.collect)
    StackMonitor.poll = recorder.wrap("network.poll", StackMonitor.poll)
    dtm.decide = recorder.wrap("network.decide", dtm.decide)


# ------------------------------------------------------------- the ledger


def load(paths: List[str]) -> List[dict]:
    """The dumps of every process of one traced run."""
    dumps = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def self_times(dumps: List[dict], start: float, end: float) -> Dict[str, List[float]]:
    """``name -> [self seconds, calls]`` over spans that began in the window.

    A span's self time is its duration minus the time its child spans
    cover; children run inside their parent on the same thread, so their
    durations simply subtract.
    """
    totals: Dict[str, List[float]] = {}
    for dump in dumps:
        rows = dump["spans"]
        child_time = [0.0] * len(rows)
        for name, t0, t1, parent in rows:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, _parent) in enumerate(rows):
            if start <= t0 <= end:
                entry = totals.setdefault(name, [0.0, 0])
                entry[0] += (t1 - t0) - child_time[i]
                entry[1] += 1
    return totals


def counter_totals(dumps: List[dict], start: float, end: float) -> Dict[str, List[float]]:
    """``name -> [sum of amounts, events]`` over counts stamped in the window."""
    totals: Dict[str, List[float]] = {}
    for dump in dumps:
        for name, flat in dump["counts"].items():
            entry = totals.setdefault(name, [0.0, 0])
            for t, amount in zip(flat[0::2], flat[1::2]):
                if start <= t <= end:
                    entry[0] += amount
                    entry[1] += 1
    return totals
