"""The edge workloads: ``python -m repro edge`` driven over real sockets.

The edge runs in a process of its own, started exactly as a user starts
it (``python -m repro edge --shards 2 --tiers 8``, every other setting at
its default).  This process is the only load generator: at most two
threads and two load connections.  Snapshots of ``stats`` and
``GET /metrics`` go over a short-lived control connection, and only
between phases, never while load is flowing.
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import measure
import output_checks
from repro.config import SensorConfig
from repro.edge import protocol
from repro.edge.client import AsyncEdgeClient, EdgeClient
from repro.edge.protocol import EdgeError
from repro.edge.sharding import HashRing
from repro.serve.loadgen import LoadgenConfig, RequestMix
from repro.serve.requests import ReadRequest, RequestKind
from repro.serve.service import ServeConfig, build_stack_sensors

SHARDS = 2
TIERS = 8
EDGE_ARGS = ["edge", "--shards", str(SHARDS), "--tiers", str(TIERS)]
STACK_IDS = 64
RANGE_C = (SensorConfig().temp_min_c, SensorConfig().temp_max_c)
GRID_STEP_C = ServeConfig().temp_resolution_c  # the result cache's temperature key
# Request shares come from the repo's stack-monitoring traffic model,
# serve/loadgen.py LoadgenConfig (point 0.70, Vt 0.10, scan 0.10, poll 0.10).
MIX = LoadgenConfig()
COLD_RATE_PER_S = 75.0
COLD_POINT_SHARE = MIX.point_weight / (MIX.point_weight + MIX.vt_weight)
# edge_cold sends whole rounds: COLD_ROUND - 2 reads drawn from the seed, one
# read of a fixed panel key and one probe read.  Their keys do not depend
# on the seed, so the scalar check on them gives the same verdict on every
# seed, and the probe's failure is the same share of every run.
COLD_ROUND = 16
PANEL_KEYS = 32
PANEL_SEED = 0
# (shard, tier, degC) where the paired kernel answers 1.03e-6 V away from
# the scalar path (the calibrate_batch FOUND line in CHANGES.md).
PROBE_KEY = (1, 6, 89.75)
WARM_SETPOINTS = 4  # RequestMix spreads them over 25..85 degC
WARMUP_S = 2.0
READ_TIMEOUT_S = 30.0


@dataclass
class Answer:
    """One request as the load generator saw it."""

    wire: str
    stack: int
    request: ReadRequest
    due: float  # its slot in the open-loop schedule; in a closed loop, the previous answer
    sent: float
    received: float = 0.0
    result: object = None  # EdgeResult when answered
    error: Optional[str] = None
    role: str = "load"  # edge_cold also sends "panel" and "probe" reads

    @property
    def ok(self) -> bool:
        return self.result is not None and self.result.status.value == "ok"


# ------------------------------------------------------------ the process


def _http_get(host: str, port: int, path: str) -> Tuple[bytes, int, int]:
    """One ``GET`` on a fresh connection: ``(body, bytes sent, bytes received)``."""
    request = f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
    with socket.create_connection((host, port), timeout=READ_TIMEOUT_S) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    return raw.partition(b"\r\n\r\n")[2], len(request), len(raw)


def _parse_metrics(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


class EdgeProcess:
    """One launched edge, its shard workers, and the control connection."""

    def __init__(self, root: Path, out_dir: Path, traced: bool) -> None:
        self.root = root
        self.out_dir = out_dir
        self.traced = traced
        self.spans_dir = out_dir / "spans"
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.setup_s = 0.0
        self.shards: List[dict] = []

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"
        if self.traced:
            # Workers fork from a launcher that has the wrappers installed;
            # under the default spawn they would start without them.
            command = [
                sys.executable,
                str(self.root / "perfbench" / "traced_edge.py"),
                str(self.spans_dir),
                *EDGE_ARGS,
                "--start-method",
                "fork",
            ]
        else:
            command = [sys.executable, "-m", "repro", *EDGE_ARGS]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.out_dir / ("edge-traced.log" if self.traced else "edge.log"), "w")
        launched = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        finally:
            log.close()
        banner = self._read_banner(timeout_s=120.0)
        match = re.search(r" on ([0-9.]+):(\d+) ", banner)
        if match is None:
            raise RuntimeError(f"edge printed no address: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self._first_reads()
        self.setup_s = time.monotonic() - launched
        self.shards = self.stats()

    def _read_banner(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("edge exited or stayed silent before listening")
        return line

    def _first_reads(self) -> None:
        """One pipelined read per shard; returns once every shard answered."""
        ring = HashRing(list(range(SHARDS)))
        stacks: Dict[int, int] = {}
        for stack in range(STACK_IDS):
            stacks.setdefault(ring.route(stack), stack)
        with socket.create_connection((self.host, self.port), timeout=60.0) as sock:
            for shard, stack in sorted(stacks.items()):
                sock.sendall(protocol.encode({
                    "v": protocol.PROTOCOL_VERSION,
                    "id": f"setup-{shard}",
                    "op": "read",
                    "stack": stack,
                    "request": protocol.request_to_wire(ReadRequest.point(0, 25.0)),
                }))
            lines = sock.makefile("rb")
            answers = [protocol.decode_line(lines.readline()) for _ in stacks]
        answered = {a.get("shard") for a in answers if a.get("ok")}
        if answered != set(range(SHARDS)):
            raise RuntimeError(f"first reads answered by shards {answered}: {answers}")

    def stats(self) -> List[dict]:
        with EdgeClient(self.host, self.port, timeout_s=READ_TIMEOUT_S) as client:
            shards = client.stats()["shards"]
        return sorted(shards, key=lambda s: s["shard"])

    def metrics(self) -> Tuple[Dict[str, float], int, int]:
        body, sent, received = _http_get(self.host, self.port, "/metrics")
        return _parse_metrics(body.decode()), sent, received

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid] + [s["pid"] for s in self.shards]

    def stop(self) -> None:
        """Drain the edge (SIGINT, as at a terminal) and wait for every process."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        deadline = time.monotonic() + 10.0
        for shard in self.shards:
            while _alive(shard["pid"]) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(shard["pid"]):
                os.kill(shard["pid"], signal.SIGKILL)
        self.proc = None

    def span_files(self) -> List[str]:
        if not self.spans_dir.is_dir():
            return []
        return sorted(str(p) for p in self.spans_dir.glob("*.json"))


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@dataclass
class Snapshot:
    metrics: Dict[str, float]
    shards: List[dict]
    control_bytes: int  # control-connection bytes the metrics render saw


def _snapshot_before(edge: EdgeProcess) -> Snapshot:
    shards = edge.stats()
    metrics, _sent, received = edge.metrics()
    # The response to this scrape is counted after its own render.
    return Snapshot(metrics, shards, received)


def _snapshot_after(edge: EdgeProcess) -> Snapshot:
    metrics, sent, _received = edge.metrics()
    # The request of this scrape is counted before its render.
    return Snapshot(metrics, edge.stats(), sent)


def _begin_phase(edge: EdgeProcess, phase: dict) -> None:
    """Snapshot the edge right before the measured phase."""
    phase["before"] = _snapshot_before(edge)
    phase["cpu_before"] = measure.cpu_seconds(edge.pids)


def _end_phase(edge: EdgeProcess, phase: dict, start: float, answers: List[Answer]) -> None:
    """Record the measured phase once its last answer is in."""
    phase.update(start=start, end=max(a.received for a in answers), answers=answers)
    phase["cpu_after"] = measure.cpu_seconds(edge.pids)
    phase["rss"] = measure.peak_rss_mb(edge.pids)
    phase["after"] = _snapshot_after(edge)


# -------------------------------------------------------------- the inputs


def grid_temperatures() -> np.ndarray:
    """Every temperature of the sensor's range on the cache's key grid."""
    low, high = RANGE_C
    return low + GRID_STEP_C * np.arange(round((high - low) / GRID_STEP_C) + 1)


def panel_keys() -> List[Tuple[int, int, float]]:
    """The fixed ``(shard, tier, degC)`` keys whose reads the scalar check covers."""
    rng = np.random.default_rng(PANEL_SEED)
    grid = grid_temperatures()
    return [
        (int(rng.integers(SHARDS)), int(rng.integers(TIERS)), float(grid[rng.integers(len(grid))]))
        for _ in range(PANEL_KEYS)
    ]


def cold_plan(rng: np.random.Generator, duration_s: float) -> List[Tuple[float, int, ReadRequest, str]]:
    """Seeded Poisson arrivals: ``(offset, stack, request, role)`` over ``duration_s``.

    The count is fixed at rate x duration, in whole rounds; given their
    count, the arrival times of a Poisson process are uniform order
    statistics.  So every run offers the same number of requests, at
    Poisson times.  Each round sends its panel and probe reads at seeded
    places among its seeded reads.
    """
    rounds = max(1, round(COLD_RATE_PER_S * duration_s / COLD_ROUND))
    ring = HashRing(list(range(SHARDS)))
    stacks = {
        shard: [s for s in range(STACK_IDS) if ring.route(s) == shard] for shard in range(SHARDS)
    }
    grid = grid_temperatures()
    panel = panel_keys()
    offsets = iter(np.sort(rng.uniform(0.0, duration_s, size=rounds * COLD_ROUND)))
    plan = []
    for index in range(rounds):
        reads = [
            (int(rng.integers(STACK_IDS)), int(rng.integers(TIERS)),
             float(grid[rng.integers(len(grid))]), "load")
            for _ in range(COLD_ROUND - 2)
        ]
        # A fixed key names its shard; any stack the edge routes there reads it.
        for (shard, tier, temp_c), role in ((panel[index % PANEL_KEYS], "panel"), (PROBE_KEY, "probe")):
            reads.append((stacks[shard][int(rng.integers(len(stacks[shard])))], tier, temp_c, role))
        for slot in rng.permutation(COLD_ROUND):
            stack, tier, temp_c, role = reads[slot]
            kind = ReadRequest.point if rng.random() < COLD_POINT_SHARE else ReadRequest.vt
            plan.append((float(next(offsets)), stack, kind(tier, temp_c), role))
    return plan


class WarmStream:
    """One connection's closed-loop requests: the repo's RequestMix at four
    exact set points, over uniform stack ids as edge/loadgen.py draws them.

    RequestMix gives a poll a +-1.5 degC gradient over the tiers, which
    would spread polls over some 36 cache keys per tier and set point and
    keep them cold; here a poll reads every tier at its set point.
    """

    def __init__(self, seed: int, phase: int, connection: int) -> None:
        state = int(np.random.SeedSequence([seed, phase, connection]).generate_state(1)[0])
        config = LoadgenConfig(seed=state, setpoints=WARM_SETPOINTS, temp_jitter_c=0.0)
        self.mix = RequestMix(config, tuple(range(TIERS)))
        self.stacks = np.random.default_rng(state + 2)

    def next(self) -> Tuple[int, ReadRequest]:
        request = self.mix.next(0.0)
        if request.kind is RequestKind.STACK_POLL:
            request = ReadRequest.poll(
                dict.fromkeys(range(TIERS), request.temp_c), default_temp_c=request.temp_c
            )
        return int(self.stacks.integers(STACK_IDS)), request


# ------------------------------------------------------------- the loads


async def _open_loop(clients, plan, answers: List[Answer]) -> float:
    """Send ``plan`` on its schedule, alternating connections; returns its start."""
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05

    async def one(client, stack, request, role, due):
        answer = Answer("binary", stack, request, due, time.monotonic(), role=role)
        answers.append(answer)
        try:
            answer.result = await asyncio.wait_for(client.read(stack, request), READ_TIMEOUT_S)
        except EdgeError as error:
            answer.error = error.code
        except asyncio.TimeoutError:
            answer.error = "timeout"
        answer.received = time.monotonic()

    tasks = []
    for index, (offset, stack, request, role) in enumerate(plan):
        due = start + offset
        delay = due - loop.time()
        if delay > 0.0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(clients[index % 2], stack, request, role, due)))
    await asyncio.gather(*tasks)
    return start


def drive_cold(edge: EdgeProcess, seed: int, seconds: float):
    """Warm-up, then the measured open loop; returns the phase records."""
    warmup = cold_plan(np.random.default_rng([seed, 1]), WARMUP_S)
    measured = cold_plan(np.random.default_rng([seed, 2]), seconds)
    phase: Dict[str, object] = {}

    async def main():
        clients = [AsyncEdgeClient(edge.host, edge.port, wire="binary") for _ in range(2)]
        for client in clients:
            await client.connect()
        try:
            await _open_loop(clients, warmup, [])
            _begin_phase(edge, phase)
            answers: List[Answer] = []
            start = await _open_loop(clients, measured, answers)
            _end_phase(edge, phase, start, answers)
        finally:
            for client in clients:
                await client.close()

    asyncio.run(main())
    return phase


class _HttpReader:
    """``POST /v1/read`` over one HTTP/1.1 keep-alive connection."""

    wire = "http"

    def __init__(self, host: str, port: int) -> None:
        self.connection = HTTPConnection(host, port, timeout=READ_TIMEOUT_S)
        self.ids = 0

    def read(self, stack: int, request: ReadRequest):
        self.ids += 1
        body = protocol.encode({
            "v": protocol.PROTOCOL_VERSION,
            "id": f"h{self.ids}",
            "op": "read",
            "stack": stack,
            "request": protocol.request_to_wire(request),
        })
        self.connection.request("POST", "/v1/read", body, {"Content-Type": "application/json"})
        answer = protocol.decode_line(self.connection.getresponse().read())
        if not answer.get("ok"):
            raise EdgeError.from_wire(answer.get("error", {}))
        return protocol.wire_to_edge_result(answer)

    def close(self) -> None:
        self.connection.close()


def _closed_loop(reader, stream, until: float, answers: List[Answer], errors: List[BaseException]) -> None:
    try:
        due = time.monotonic()
        while due < until:
            stack, request = stream.next()
            answer = Answer(reader.wire, stack, request, due, time.monotonic())
            try:
                answer.result = reader.read(stack, request)
            except EdgeError as error:
                answer.error = error.code
            answer.received = due = time.monotonic()
            answers.append(answer)
    except BaseException as error:  # noqa: BLE001 - re-raised by the caller
        errors.append(error)


def _both_connections(readers, seed: int, phase: int, seconds: float) -> List[Answer]:
    """One read outstanding per connection for ``seconds``: NDJSON on a
    second thread, HTTP on this one."""
    until = time.monotonic() + seconds
    answers: List[List[Answer]] = [[], []]
    errors: List[BaseException] = []
    thread = threading.Thread(
        target=_closed_loop,
        args=(readers[0], WarmStream(seed, phase, 0), until, answers[0], errors),
    )
    thread.start()
    _closed_loop(readers[1], WarmStream(seed, phase, 1), until, answers[1], errors)
    thread.join(READ_TIMEOUT_S + seconds)
    if thread.is_alive():
        raise RuntimeError("the NDJSON load thread did not finish")
    if errors:
        raise errors[0]
    return answers[0] + answers[1]


def drive_warm(edge: EdgeProcess, seed: int, seconds: float):
    """Warm-up (it fills the cache), then the measured closed loop."""
    phase: Dict[str, object] = {}
    readers = [
        EdgeClient(edge.host, edge.port, timeout_s=READ_TIMEOUT_S, wire="ndjson"),
        _HttpReader(edge.host, edge.port),
    ]
    try:
        _both_connections(readers, seed, 1, WARMUP_S)
        _begin_phase(edge, phase)
        start = time.monotonic()
        answers = _both_connections(readers, seed, 2, seconds)
        _end_phase(edge, phase, start, answers)
    finally:
        for reader in readers:
            reader.close()
    return phase


# --------------------------------------------------------------- a pass


def _served(snapshot: Snapshot) -> Dict[int, int]:
    return {s["shard"]: s["served"] for s in snapshot.shards}


def _stats_delta(before: Snapshot, after: Snapshot, *path) -> int:
    def total(snapshot):
        value = 0
        for shard in snapshot.shards:
            node = shard
            for key in path:
                node = node[key]
            value += node
        return value

    return total(after) - total(before)


def _batch_size(before: Snapshot, after: Snapshot) -> float:
    sizes: Dict[int, int] = {}
    for sign, snapshot in ((-1, before), (1, after)):
        for shard in snapshot.shards:
            for size, count in shard["batch_size_histogram"].items():
                sizes[int(size)] = sizes.get(int(size), 0) + sign * count
    batches = sum(sizes.values())
    return sum(size * count for size, count in sizes.items()) / batches if batches else 0.0


def _layers(phase) -> Dict[str, float]:
    """Per-layer figures from the program's public outputs."""
    before: Snapshot = phase["before"]
    after: Snapshot = phase["after"]
    answers: List[Answer] = phase["answers"]
    n = len(answers)
    m_before, m_after = before.metrics, after.metrics

    def per(key: str) -> float:
        count = measure.delta(m_after, m_before, key + "_count")
        return measure.delta(m_after, m_before, key + "_sum") / count if count else 0.0

    request_ms = per("repro_edge_request_ms")
    worker_ms = measure.mean([a.result.latency_ms for a in answers if a.result is not None])
    client_ms = measure.mean([(a.received - a.sent) * 1e3 for a in answers])
    wire_bytes = (
        measure.delta(m_after, m_before, "repro_edge_bytes_in")
        + measure.delta(m_after, m_before, "repro_edge_bytes_out")
        - before.control_bytes
        - after.control_bytes
    )
    served = {k: v - _served(before).get(k, 0) for k, v in _served(after).items()}
    hits = _stats_delta(before, after, "cache", "hits")
    misses = _stats_delta(before, after, "cache", "misses")
    ipc_messages = measure.delta(m_after, m_before, "repro_edge_ipc_messages")
    return {
        "edge.transport_ms": client_ms - request_ms,
        "edge.request_ms": request_ms,
        "edge.cpu_us_per_request": per("repro_edge_cpu_us_per_request"),
        "edge.bytes_per_request": wire_bytes / n,
        "edge.busiest_shard_share": max(served.values()) / max(1, sum(served.values())),
        "edge.ipc_ms": request_ms - worker_ms,
        "edge.reads_per_ipc_message": (
            measure.delta(m_after, m_before, "repro_edge_ipc_batch_sum") / ipc_messages
            if ipc_messages else 0.0
        ),
        "serve.batch_size": _batch_size(before, after),
        "serve.batches": _stats_delta(before, after, "batches") / n,
        "serve.rejected": _stats_delta(before, after, "admission", "rejected") / n,
        "serve.shed": _stats_delta(before, after, "admission", "shed") / n,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache_expirations": _stats_delta(before, after, "cache", "expirations") / n,
        "serve.cache_evictions": _stats_delta(before, after, "cache", "evictions") / n,
        "serve.worker_ms": worker_ms,
        "loadgen.late_ms": max(a.sent - a.due for a in answers) * 1e3,
    }


def _checks(phase, workload: str, shards: List[dict]) -> Tuple[List[str], List[str]]:
    """The output checks: ``(failures, messages of probe reads that left the
    scalar path)``.

    The scalar check covers every key ``edge_warm`` reads (its four set
    points, all of which every run reads) and the panel and probe keys of
    ``edge_cold``: keys that do not depend on the seed, so its verdict is
    the same on every seed.  ``edge_cold``'s other reads are drawn from
    10 576 (shard, tier, grid point) keys, a few of which leave the scalar
    path (the calibrate_batch FOUND line in CHANGES.md), so a check on a
    seeded sample of them would pass or fail by the seed.
    """
    answers: List[Answer] = [a for a in phase["answers"] if a.ok]
    stacks = {s["shard"]: build_stack_sensors(s["tiers"], s["seed"]) for s in shards}
    true_shifts = {
        (shard, tier): sensor.true_process_shifts()
        for shard, sensors in stacks.items()
        for tier, sensor in sensors.items()
    }
    failures = output_checks.check_tiers(answers, TIERS)
    failures += output_checks.check_accuracy(answers, true_shifts)
    references: Dict[Tuple[int, int, float], object] = {}

    def scalar(shard: int, tier: int, temp_c: float):
        key = (shard, tier, temp_c)
        if key not in references:
            references[key] = stacks[shard][tier].read(temp_c, deterministic=True)
        return references[key]

    pairs = []
    probe_messages = []
    for answer in answers:
        if workload == "edge_cold" and answer.role == "load":
            continue
        answer_pairs = [
            (reading, scalar(answer.result.shard, reading.tier,
                             output_checks.requested_temp_c(answer.request, reading.tier)))
            for reading in answer.result.readings
        ]
        if answer.role == "probe":
            probe_messages += output_checks.check_scalar_match(answer_pairs)[:1]
        else:
            pairs += answer_pairs
    failures += output_checks.check_scalar_match(pairs)
    served = _stats_delta(phase["before"], phase["after"], "served")
    failures += output_checks.check_served(len(answers), served)
    if workload == "edge_warm":
        failures += output_checks.check_bit_identity(answers)
    return failures, probe_messages


def run_pass(root: Path, out_dir: Path, workload: str, seed: int, seconds: float, traced: bool) -> measure.PassResult:
    """Launch an edge, drive one workload through it, check, tear down."""
    edge = EdgeProcess(root, out_dir, traced)
    try:
        edge.start()
        drive = drive_cold if workload == "edge_cold" else drive_warm
        phase = drive(edge, seed, seconds)
    finally:
        edge.stop()
    answers: List[Answer] = phase["answers"]
    ok = [a for a in answers if a.ok]
    # An open loop charges a request from its slot, a closed loop from its send.
    starts = [a.due if workload == "edge_cold" else a.sent for a in ok]
    latencies_ms = [(a.received - began) * 1e3 for a, began in zip(ok, starts)]
    readings = sum(len(a.result.readings) for a in ok)
    fresh = [r for a in ok for r in a.result.readings if not r.cache_hit]
    elapsed = phase["end"] - phase["start"]
    end_to_end = {
        "setup_s": edge.setup_s,
        "request_p50_ms": measure.median_per_second(starts, latencies_ms),
        "request_p99_ms": measure.percentile(latencies_ms, 99),
        "readings_per_s": readings / elapsed,
        "cpu_us_per_reading": (phase["cpu_after"] - phase["cpu_before"]) / readings * 1e6,
        "peak_rss_mb": phase["rss"],
    }
    failures, probe_messages = _checks(phase, workload, edge.shards)
    if probe_messages:
        print(f"known fault: {len(probe_messages)} of {sum(a.role == 'probe' for a in ok)} "
              f"probe reads left the scalar path, counted as failed; first: {probe_messages[0]}")
    if len(ok) < 1000:
        print(f"warning: only {len(ok)} requests answered after warm-up; p99 rests "
              "on fewer than ten samples beyond it")
    return measure.PassResult(
        end_to_end=end_to_end,
        layers=_layers(phase),
        failures=failures,
        attempted=len(answers),
        failed=len(answers) - len(ok) + len(probe_messages),
        window=(phase["start"], phase["end"]),
        silicon={
            "conversion_us": measure.mean([r.conversion_time * 1e6 for r in fresh]),
            "energy_pj": measure.mean([r.energy_j * 1e12 for r in fresh]),
        },
        span_files=edge.span_files(),
    )
