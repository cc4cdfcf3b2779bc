"""Wire-cost benchmark: the fast wire must actually be fast.

The acceptance bars of the PR that introduced the binary frame format
and batch-coalesced worker IPC (docs/edge.md, "Wire formats"):

* **codec** — one binary ``read`` exchange (request decode + answer
  encode, the per-message work the edge event loop does) must cost at
  most half of its NDJSON equivalent, and the binary wire bytes must be
  smaller;
* **IPC coalescing** — under a burst of routed reads, the supervisor
  must put at least 3x fewer messages on the worker pipes than the
  one-message-per-read wire it replaced (measured with the real
  :class:`~repro.edge.supervisor.ShardPool` via the
  ``edge.ipc_messages`` / ``edge.ipc_batch`` telemetry);
* **edge CPU** — served through the real server over real sockets, the
  per-request wire CPU (``edge.cpu_us_per_request``: decode + encode,
  shard time excluded) must be lower on the binary wire than on NDJSON.

The codec assertion is pure compute (no sockets, no processes); the
other two spawn real shard workers, so they are smokes with a meter,
not microsecond-precise — their bars are deliberately coarse.

These measured costs calibrate the ``WIRE_COSTS`` table that the
virtual-time loadgen charges per request (``repro.edge.loadgen``).
"""

import time

from repro import telemetry
from repro.edge import protocol
from repro.edge.client import EdgeClient
from repro.edge.server import EdgeConfig, EdgeServerThread
from repro.edge.sharding import shard_seed
from repro.edge.supervisor import ShardPool
from repro.edge.worker import WorkerConfig
from repro.serve.requests import ReadRequest

CODEC_MESSAGES = 2000
CODEC_REPEATS = 5  # interleaved NDJSON/binary rounds; each arm keeps its best
MIN_CODEC_ADVANTAGE = 2.0  # NDJSON cost / binary cost per exchange
MIN_IPC_COALESCING = 3.0  # routed reads per pipe message
ROOT_SEED = 2012


# ----------------------------------------------------------------- payloads


def _read_payload(rid: int) -> dict:
    """The hot inbound message: one routed point read."""
    return {
        "v": protocol.PROTOCOL_VERSION,
        "id": rid,
        "op": "read",
        "stack": 7,
        "request": protocol.request_to_wire(
            ReadRequest.point(1, 45.0), deadline_ms=250.0
        ),
    }


def _answer_payload(rid: int) -> dict:
    """One served answer from the deployed request mix.

    Mirrors the kind mix of the edge benchmark stream
    (``repro.edge.bench._request_stream``): point/vt answers carry one
    reading, scans two, polls four.
    """
    kind = rid % 10
    n_readings = {8: 2, 9: 4}.get(kind, 1)
    return {
        "id": rid,
        "ok": True,
        "shard": 2,
        "result": {
            "status": "ok",
            "batch_size": 8,
            "cache_hits": 3,
            "error": None,
            "latency_ms": 1.25,
            "readings": [
                {
                    "tier": tier,
                    "temperature_c": 45.03125 + 0.5 * tier,
                    "dvtn": 0.0123,
                    "dvtp": -0.0045,
                    "converged": True,
                    "quality": "ok",
                    "cache_hit": False,
                    "conversion_time": 8.0e-4,
                    "energy_j": 1.1e-9,
                }
                for tier in range(n_readings)
            ],
        },
    }


def _decode_frame(blob: bytes) -> dict:
    _version, kind, _length = protocol.decode_frame_header(
        blob[: protocol.FRAME_HEADER_SIZE]
    )
    return protocol.decode_frame_body(kind, blob[protocol.FRAME_HEADER_SIZE :])


def _alternating_best_of(arms, repeats: int = CODEC_REPEATS):
    """Each arm's best time, running the arms in turn ``repeats`` times.

    The host changes speed in spells; interleaving the arms repeat by
    repeat lets a slow spell cost both arms alike instead of one.
    """
    best = [float("inf")] * len(arms)
    for _ in range(repeats):
        for index, fn in enumerate(arms):
            started = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def _exchanges(encode, decode, requests, answers):
    """The server's per-exchange work over every message: decode the
    inbound read, encode the outbound answer.  (The client does the
    mirror image.)"""
    blobs = [encode(request) for request in requests]

    def run():
        for blob in blobs:
            decode(blob)
        for answer in answers:
            encode(answer)

    return run


def _metric(name: str):
    for record in telemetry.get().registry.snapshot():
        if record["name"] == name:
            return record
    return None


def _counter_value(name: str) -> float:
    record = _metric(name)
    return 0.0 if record is None else float(record["value"])


def _histogram_totals(name: str):
    record = _metric(name)
    if record is None:
        return 0.0, 0.0
    return float(record["sum"]), float(record["count"])


# -------------------------------------------------------------------- tests


def test_binary_exchange_at_least_twice_as_cheap_as_ndjson():
    requests = [_read_payload(i) for i in range(CODEC_MESSAGES)]
    answers = [_answer_payload(i) for i in range(CODEC_MESSAGES)]

    ndjson, binary = _alternating_best_of(
        (
            _exchanges(protocol.encode, protocol.decode_line, requests, answers),
            _exchanges(protocol.encode_frame, _decode_frame, requests, answers),
        )
    )
    ndjson /= CODEC_MESSAGES
    binary /= CODEC_MESSAGES

    advantage = ndjson / binary
    print(
        f"\nwire codec per exchange: ndjson {ndjson*1e6:.2f} us, "
        f"binary {binary*1e6:.2f} us ({advantage:.2f}x cheaper)"
    )
    assert advantage >= MIN_CODEC_ADVANTAGE, (
        f"binary exchange only {advantage:.2f}x cheaper than NDJSON "
        f"(bar: {MIN_CODEC_ADVANTAGE}x)"
    )


def test_binary_wire_bytes_are_smaller():
    request, answer = _read_payload(1), _answer_payload(1)
    assert len(protocol.encode_frame(request)) < len(protocol.encode(request))
    assert len(protocol.encode_frame(answer)) < len(protocol.encode(answer))
    # And the frames round-trip to the same payloads (floats included —
    # IEEE-754 doubles on the wire, no text round-off).
    assert _decode_frame(protocol.encode_frame(request)) == request
    decoded = _decode_frame(protocol.encode_frame(answer))
    assert decoded["result"]["readings"] == answer["result"]["readings"]


def test_supervisor_coalesces_reads_into_few_pipe_messages():
    reads = 48
    workers = [
        WorkerConfig(shard_index=i, seed=shard_seed(ROOT_SEED, i), tiers=2)
        for i in range(2)
    ]
    # A generous linger so a burst submitted faster than the flushers
    # drain it coalesces; window-full still flushes immediately.
    pool = ShardPool(workers, window=64, ipc_batch=16, ipc_linger_s=0.002)
    messages_before = _counter_value("edge.ipc_messages")
    batched_before, _ = _histogram_totals("edge.ipc_batch")
    pool.start(health_checks=False)
    try:
        wire = protocol.request_to_wire(ReadRequest.point(0, 45.0))
        futures = [pool.submit_read(i, wire) for i in range(reads)]
        answers = [f.result(timeout=30.0) for f in futures]
    finally:
        pool.close()
    assert all(a.get("ok") for a in answers)

    messages = _counter_value("edge.ipc_messages") - messages_before
    batched, _ = _histogram_totals("edge.ipc_batch")
    batched -= batched_before
    assert batched == reads, "every routed read must ride a coalesced message"
    coalescing = reads / messages if messages else 0.0
    print(
        f"\nipc coalescing: {reads} reads in {messages:.0f} pipe messages "
        f"({coalescing:.1f} reads/message)"
    )
    assert coalescing >= MIN_IPC_COALESCING, (
        f"only {coalescing:.1f} reads per pipe message "
        f"(bar: {MIN_IPC_COALESCING})"
    )


def test_edge_cpu_per_request_lower_on_binary_wire():
    reads = 120
    config = EdgeConfig(shards=1, port=0, tiers=2, root_seed=ROOT_SEED)
    costs = {}
    with EdgeServerThread(config) as edge:
        for wire in ("ndjson", "binary"):
            sum_before, count_before = _histogram_totals("edge.cpu_us_per_request")
            with EdgeClient(edge.host, edge.port, wire=wire) as client:
                for i in range(reads):
                    result = client.read(i % 8, ReadRequest.point(i % 2, 45.0))
                    assert result.ok
            cpu_sum, cpu_count = _histogram_totals("edge.cpu_us_per_request")
            served = cpu_count - count_before
            assert served == reads
            costs[wire] = (cpu_sum - sum_before) / served
    print(
        f"\nedge.cpu_us_per_request: ndjson {costs['ndjson']:.2f} us, "
        f"binary {costs['binary']:.2f} us"
    )
    assert costs["binary"] < costs["ndjson"], (
        f"binary wire CPU {costs['binary']:.2f} us/request is not below "
        f"NDJSON's {costs['ndjson']:.2f} us/request"
    )
