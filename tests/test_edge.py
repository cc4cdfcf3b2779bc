"""The network edge: wire protocol, routing, failure paths, determinism.

Three layers of coverage:

* pure units — NDJSON framing, typed errors, request/result round-trips,
  shard seeds and consistent-hash routing (no processes involved);
* one shared live server (4 spawn-started shards, chaos enabled) — the
  protocol surface end to end: all four request kinds, malformed lines,
  unknown ops, oversized payloads, mid-batch disconnects, the HTTP
  adapter, and a staged shard crash with recovery;
* the golden cross-process guarantee — a 4-shard edge deployment answers
  bit-identically to an in-process replay of each shard's embedded
  service, partitioned by the same hash ring.
"""

import asyncio
import dataclasses
import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.edge import (
    AsyncEdgeClient,
    EdgeClient,
    EdgeConfig,
    EdgeDeployment,
    EdgeError,
    EdgeServerThread,
    HashRing,
    RetryPolicy,
    ShardPool,
    WorkerConfig,
    shard_seed,
)
from repro.edge import protocol
from repro.serve import ReadRequest, ResultStatus, SensorReadService

TIERS = 4
SHARDS = 4
ROOT_SEED = 2012
MAX_LINE = 8192


# ------------------------------------------------------------------ units


class TestProtocolFraming:
    def test_encode_decode_round_trip(self):
        payload = {"id": "r1", "op": "read", "stack": 7}
        line = protocol.encode(payload)
        assert line.endswith(b"\n")
        assert protocol.decode_line(line[:-1]) == payload

    def test_decode_rejects_non_json(self):
        with pytest.raises(EdgeError) as info:
            protocol.decode_line(b"not json at all")
        assert info.value.code == protocol.MALFORMED
        assert not info.value.retryable

    def test_decode_rejects_non_object(self):
        with pytest.raises(EdgeError) as info:
            protocol.decode_line(b"[1, 2, 3]")
        assert info.value.code == protocol.MALFORMED

    def test_error_codes_are_a_closed_vocabulary(self):
        with pytest.raises(ValueError):
            EdgeError("made_up_code", "nope")

    def test_retryable_defaults_follow_the_code(self):
        assert EdgeError(protocol.BACKPRESSURE, "x").retryable
        assert EdgeError(protocol.SHARD_DOWN, "x").retryable
        assert not EdgeError(protocol.INVALID, "x").retryable
        assert not EdgeError(protocol.MALFORMED, "x").retryable

    def test_error_wire_round_trip(self):
        error = EdgeError(protocol.BACKPRESSURE, "window full")
        back = EdgeError.from_wire(error.to_wire())
        assert (back.code, back.message, back.retryable) == (
            error.code,
            error.message,
            error.retryable,
        )

    def test_unknown_wire_code_degrades_to_internal(self):
        error = EdgeError.from_wire({"code": "martian", "message": "?"})
        assert error.code == protocol.INTERNAL

    def test_every_error_code_has_an_http_status(self):
        assert set(protocol.HTTP_STATUS) == set(protocol.ERROR_CODES)
        assert all(400 <= s <= 599 for s in protocol.HTTP_STATUS.values())


class TestRequestWireRoundTrip:
    @pytest.mark.parametrize(
        "request_",
        [
            ReadRequest.point(1, 55.0),
            ReadRequest.point(0, 40.0, vdd=1.05, assume_vdd=1.0),
            ReadRequest.vt(2, 60.0),
            ReadRequest.scan(35.0, tiers=(0, 2)),
            ReadRequest.poll({0: 30.0, 1: 45.5, 3: 72.25}),
        ],
        ids=["point", "point-vdd", "vt", "scan", "poll"],
    )
    def test_round_trip_preserves_fields(self, request_):
        wire = protocol.request_to_wire(request_)
        back = protocol.wire_to_request(json.loads(json.dumps(wire)), now=0.0)
        assert back.kind == request_.kind
        assert back.temp_c == request_.temp_c
        assert back.tier == request_.tier
        assert back.tiers == request_.tiers
        assert back.temps_c == request_.temps_c
        assert back.vdd == request_.vdd
        assert back.assume_vdd == request_.assume_vdd

    def test_deadline_is_relative_and_reanchored(self):
        wire = protocol.request_to_wire(ReadRequest.point(0, 50.0), deadline_ms=250.0)
        assert wire["deadline_ms"] == 250.0
        request = protocol.wire_to_request(wire, now=100.0)
        assert request.deadline_s == pytest.approx(100.25)

    def test_service_local_deadline_never_crosses_the_wire(self):
        request = ReadRequest.point(0, 50.0, deadline_s=12345.0)
        assert "deadline_s" not in protocol.request_to_wire(request)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "warp", "temp_c": 25.0},
            {"kind": "point_read", "tier": 0, "deadline_ms": -5},
            {"kind": "point_read", "tier": 0, "deadline_ms": float("nan")},
            {"kind": "point_read", "tier": 0, "temps_c": "hot"},
            {"kind": "tier_scan", "tiers": "all"},
        ],
        ids=[
            "unknown-kind", "negative-deadline", "nan-deadline", "bad-temps",
            "bad-tiers",
        ],
    )
    def test_invalid_requests_are_typed(self, payload):
        with pytest.raises(EdgeError) as info:
            protocol.wire_to_request(payload, now=0.0)
        assert info.value.code == protocol.INVALID
        assert not info.value.retryable


class TestSharding:
    def test_shard_seed_is_deterministic(self):
        assert shard_seed(ROOT_SEED, 3) == shard_seed(ROOT_SEED, 3)

    def test_shard_seeds_are_distinct(self):
        seeds = [shard_seed(ROOT_SEED, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert shard_seed(ROOT_SEED, 0) != shard_seed(ROOT_SEED + 1, 0)

    def test_negative_shard_rejected(self):
        with pytest.raises(ValueError):
            shard_seed(ROOT_SEED, -1)

    def test_ring_routes_deterministically_into_the_shard_set(self):
        ring = HashRing(range(SHARDS))
        again = HashRing(range(SHARDS))
        for stack in range(200):
            owner = ring.route(stack)
            assert owner in range(SHARDS)
            assert again.route(stack) == owner

    def test_ring_spreads_stacks_across_shards(self):
        ring = HashRing(range(SHARDS))
        counts = {s: 0 for s in range(SHARDS)}
        for stack in range(1000):
            counts[ring.route(stack)] += 1
        assert all(count > 100 for count in counts.values())

    def test_growing_the_ring_remaps_a_minority(self):
        small, grown = HashRing(range(4)), HashRing(range(5))
        moved = sum(
            1 for stack in range(1000) if small.route(stack) != grown.route(stack)
        )
        # Consistent hashing: ~1/5 of the space moves; modular routing
        # would move ~4/5.  Allow slack for ring-point luck.
        assert moved < 500

    def test_ring_rejects_empty_shard_set(self):
        with pytest.raises(ValueError):
            HashRing([])


# ------------------------------------------------------- one live server


@pytest.fixture(scope="module")
def edge():
    config = EdgeConfig(
        shards=SHARDS,
        tiers=TIERS,
        root_seed=ROOT_SEED,
        max_line_bytes=MAX_LINE,
        enable_chaos=True,
        health_interval_s=0.2,
        health_timeout_s=2.0,
        respawn_backoff_s=0.05,
    )
    server = EdgeServerThread(config).start()
    yield server
    server.stop(drain=True)


@pytest.fixture()
def client(edge):
    with EdgeClient(edge.host, edge.port) as c:
        yield c


def _raw_connection(edge):
    sock = socket.create_connection((edge.host, edge.port), timeout=30.0)
    return sock, sock.makefile("rb")


class TestEdgeRequestSurface:
    def test_all_four_kinds_round_trip(self, client):
        point = client.read(3, ReadRequest.point(1, 55.0))
        assert point.ok and point.reading_for(1).temperature_c == pytest.approx(
            55.0, abs=1.5
        )
        vt = client.read(3, ReadRequest.vt(0, 60.0))
        assert vt.ok and abs(vt.readings[0].dvtn) < 0.2
        scan = client.read(5, ReadRequest.scan(35.0))
        assert scan.ok and len(scan.readings) == TIERS
        poll = client.read(9, ReadRequest.poll({t: 30.0 + 5 * t for t in range(TIERS)}))
        assert poll.ok and [r.tier for r in poll.readings] == list(range(TIERS))

    def test_answering_shard_matches_the_public_ring(self, client):
        ring = HashRing(range(SHARDS))
        for stack in range(12):
            result = client.read(stack, ReadRequest.point(0, 42.0))
            assert result.shard == ring.route(stack)

    def test_ping_reports_shard_health(self, client):
        answer = client.ping()
        assert answer["pong"] == "edge"
        assert len(answer["shards"]) == SHARDS

    def test_stats_come_from_every_shard(self, client):
        client.read(0, ReadRequest.point(0, 50.0))
        shards = client.stats()["shards"]
        assert sorted(s["shard"] for s in shards) == list(range(SHARDS))
        assert sum(s["served"] for s in shards) >= 1


class TestEdgeErrorPaths:
    def test_malformed_line_is_answered_and_connection_survives(self, edge):
        # The first byte decides the connection's protocol, so a
        # malformed *NDJSON* line still opens with '{'.
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(b"{this is not json\n")
            answer = json.loads(reader.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.MALFORMED
            sock.sendall(protocol.encode({"id": "after", "op": "ping"}))
            answer = json.loads(reader.readline())
            assert answer["id"] == "after" and answer["ok"] is True
        finally:
            sock.close()

    def test_unknown_op_is_typed(self, client):
        answer = client.raw({"op": "teleport"})
        assert answer["ok"] is False
        assert answer["error"]["code"] == protocol.UNKNOWN_OP
        assert answer["error"]["retryable"] is False

    @pytest.mark.parametrize("op", [[1], {"a": 1}], ids=["list", "object"])
    def test_unhashable_op_is_typed_and_connection_survives(self, edge, op):
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(protocol.encode({"id": "bad", "op": op}))
            answer = json.loads(reader.readline())
            assert answer["id"] == "bad" and answer["ok"] is False
            assert answer["error"]["code"] == protocol.UNKNOWN_OP
            assert answer["error"]["retryable"] is False
            sock.sendall(protocol.encode({"id": "after", "op": "ping"}))
            answer = json.loads(reader.readline())
            assert answer["id"] == "after" and answer["ok"] is True
        finally:
            sock.close()

    @pytest.mark.parametrize("bad_c", [200.0, float("nan")], ids=["200C", "nan"])
    def test_one_bad_read_fails_alone_in_a_pipelined_batch(self, edge, bad_c):
        temps = [40.0 + i for i in range(9)] + [bad_c]
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(
                b"".join(
                    protocol.encode({
                        "id": f"r{i}",
                        "op": "read",
                        "stack": 4242,
                        "request": {"kind": "point_read", "tier": 1, "temp_c": t},
                    })
                    for i, t in enumerate(temps)
                )
            )
            answers = {}
            for _ in temps:
                answer = json.loads(reader.readline())
                answers[answer["id"]] = answer
        finally:
            sock.close()
        for i in range(9):
            assert answers[f"r{i}"]["ok"] is True
            assert answers[f"r{i}"]["result"]["status"] == "ok"
        bad = answers["r9"]
        if bad_c == 200.0:
            assert bad["ok"] is True and bad["result"]["status"] == "error"
            assert "TemperatureRangeError" in bad["result"]["error"]
        else:
            assert bad["ok"] is False
            assert bad["error"]["code"] == protocol.INVALID
            assert bad["error"]["retryable"] is False

    def test_unknown_request_kind_is_typed(self, client):
        answer = client.raw(
            {"op": "read", "stack": 0, "request": {"kind": "warp", "temp_c": 25.0}}
        )
        assert answer["ok"] is False
        assert answer["error"]["code"] == protocol.INVALID

    def test_read_without_request_object_is_invalid(self, client):
        answer = client.raw({"op": "read", "stack": 0})
        assert answer["error"]["code"] == protocol.INVALID

    def test_non_integer_stack_is_invalid(self, client):
        answer = client.raw(
            {
                "op": "read",
                "stack": "seven",
                "request": protocol.request_to_wire(ReadRequest.point(0, 40.0)),
            }
        )
        assert answer["error"]["code"] == protocol.INVALID

    def test_oversized_line_is_answered_and_connection_survives(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            huge = b'{"pad": "' + b"x" * (2 * MAX_LINE) + b'"}\n'
            sock.sendall(huge)
            answer = json.loads(reader.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.OVERSIZED
            sock.sendall(protocol.encode({"id": "small", "op": "ping"}))
            answer = json.loads(reader.readline())
            assert answer["id"] == "small" and answer["ok"] is True
        finally:
            sock.close()

    def test_client_disconnect_mid_batch_does_not_wedge_the_server(self, edge):
        sock, _reader = _raw_connection(edge)
        wire = protocol.request_to_wire(ReadRequest.point(0, 61.0))
        for i in range(8):
            sock.sendall(
                protocol.encode(
                    {"id": f"orphan{i}", "op": "read", "stack": i, "request": wire}
                )
            )
        sock.close()  # walk away with every answer still in flight
        with EdgeClient(edge.host, edge.port) as fresh:
            result = fresh.read(0, ReadRequest.point(0, 47.0))
            assert result.ok
            assert all(s["state"] == "healthy" for s in fresh.ping()["shards"])


class TestEdgeHttpAdapter:
    def test_post_read(self, edge):
        conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            body = json.dumps(
                {
                    "id": "h1",
                    "stack": 4,
                    "request": protocol.request_to_wire(ReadRequest.point(2, 58.0)),
                }
            )
            conn.request("POST", "/v1/read", body=body)
            response = conn.getresponse()
            answer = json.loads(response.read())
            assert response.status == 200
            assert answer["ok"] is True
            readings = answer["result"]["readings"]
            assert readings[0]["tier"] == 2
            assert abs(readings[0]["temperature_c"] - 58.0) < 1.5
        finally:
            conn.close()

    def test_post_read_error_maps_to_http_status(self, edge):
        conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            body = json.dumps({"stack": 0, "request": {"kind": "warp"}})
            conn.request("POST", "/v1/read", body=body)
            response = conn.getresponse()
            answer = json.loads(response.read())
            assert response.status == protocol.HTTP_STATUS[protocol.INVALID]
            assert answer["error"]["code"] == protocol.INVALID
        finally:
            conn.close()

    def test_healthz(self, edge):
        conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert payload["status"] == "ok"
            assert len(payload["shards"]) == SHARDS
        finally:
            conn.close()

    def test_metrics_exposition(self, edge):
        conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "repro_edge_connections" in text
            assert "repro_edge_requests" in text
        finally:
            conn.close()

    def test_unknown_route_is_404(self, edge):
        conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            conn.request("GET", "/v2/teleport")
            response = conn.getresponse()
            answer = json.loads(response.read())
            assert response.status == 404
            assert answer["error"]["code"] == protocol.UNKNOWN_OP
        finally:
            conn.close()

    def test_query_string_does_not_change_the_route(self, edge):
        answers = []
        for target in ("/v1/admin/status", "/v1/admin/status?x=1"):
            conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
            try:
                conn.request("GET", target)
                response = conn.getresponse()
                answers.append((response.status, json.loads(response.read())))
            finally:
                conn.close()
        (plain_status, plain), (query_status, query) = answers
        assert query_status == plain_status == 200
        assert query["ok"] is plain["ok"] is True
        assert query["status"]["shards"] == plain["status"]["shards"]
        assert query["status"].keys() == plain["status"].keys()


class TestAsyncClient:
    def test_pipelined_concurrent_reads(self, edge):
        async def go():
            async with AsyncEdgeClient(edge.host, edge.port) as client:
                results = await asyncio.gather(
                    *[
                        client.read(s, ReadRequest.point(s % TIERS, 40.0 + s))
                        for s in range(10)
                    ]
                )
                pong = await client.ping()
            return results, pong

        results, pong = asyncio.run(go())
        assert all(r.ok for r in results)
        ring = HashRing(range(SHARDS))
        assert [r.shard for r in results] == [ring.route(s) for s in range(10)]
        assert pong["ok"] is True


class TestClientParity:
    """The blocking and asyncio clients answer one script identically."""

    SCRIPT = (
        (3, ReadRequest.point(1, 55.0)),
        (5, ReadRequest.vt(0, 60.0)),
        (7, ReadRequest.scan(35.0)),
        (9, ReadRequest.poll({t: 30.0 + 5 * t for t in range(TIERS)})),
        (11, ReadRequest.point(2, 200.0)),  # out of range: the edge refuses it
    )

    @staticmethod
    def _served(result):
        # cache_hit is host-local serving metadata: whichever client came
        # second was answered from the cache.
        readings = [dataclasses.replace(r, cache_hit=False) for r in result.readings]
        return result.status, result.shard, result.error, readings

    def test_both_clients_on_both_wires_agree(self, edge):
        async def read_async(wire):
            async with AsyncEdgeClient(edge.host, edge.port, wire=wire) as client:
                return [await client.read(s, r) for s, r in self.SCRIPT]

        runs = []
        for wire in ("ndjson", "binary"):
            with EdgeClient(edge.host, edge.port, wire=wire) as client:
                runs.append([client.read(s, r) for s, r in self.SCRIPT])
            runs.append(asyncio.run(read_async(wire)))
        first = [self._served(result) for result in runs[0]]
        assert first[-1][0] is ResultStatus.ERROR
        assert "TemperatureRangeError" in first[-1][2]
        assert all(status is ResultStatus.OK for status, *_ in first[:-1])
        for run in runs[1:]:
            assert [self._served(result) for result in run] == first


class TestShardCrashRecovery:
    def test_crash_in_flight_is_retryable_and_the_shard_respawns(self, edge):
        ring = HashRing(range(SHARDS))
        victim = ring.route(0)
        patient = EdgeClient(
            edge.host,
            edge.port,
            retry=RetryPolicy(attempts=10, backoff_s=0.1, max_backoff_s=1.0),
        )
        try:
            before = {
                s["shard"]: s["restarts"] for s in patient.ping()["shards"]
            }
            answer = patient.raw({"op": "chaos", "shard": victim, "kind": "exit"})
            assert answer["ok"] is True
            # The very next read to the dead shard either rides the retry
            # loop to success or — if retries outpace the respawn — fails
            # *typed and retryable*, never hangs.
            try:
                result = patient.read(0, ReadRequest.point(0, 52.0))
                assert result.ok
            except EdgeError as error:
                assert error.retryable
                time.sleep(2.0)
                assert patient.read(0, ReadRequest.point(0, 52.0)).ok
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                shards = {
                    s["shard"]: s for s in patient.ping()["shards"]
                }
                if (
                    shards[victim]["restarts"] > before[victim]
                    and shards[victim]["state"] == "healthy"
                ):
                    break
                time.sleep(0.2)
            else:
                pytest.fail("crashed shard was not respawned to healthy in time")
            # The respawned shard serves the same seeded stack.
            assert patient.read(0, ReadRequest.point(0, 52.0)).ok
        finally:
            patient.close()


class TestGoldenCrossProcessDeterminism:
    """A sharded edge deployment is bit-identical to in-process serving.

    Shard i's worker builds its die stack from ``shard_seed(root, i)``;
    replaying the same requests against an in-process
    :class:`SensorReadService` built from the same
    :class:`WorkerConfig` must reproduce every answer bit for bit —
    across a process boundary, either wire format (JSON text floats and
    IEEE-754 doubles both round-trip exactly), the batch-coalesced
    worker pipes, and a respawnable worker.
    """

    @pytest.mark.parametrize("wire", ["ndjson", "binary"])
    def test_edge_matches_in_process_replay(self, edge, wire):
        with EdgeClient(edge.host, edge.port, wire=wire) as client:
            self._assert_matches_in_process_replay(edge, client)

    def _assert_matches_in_process_replay(self, edge, client):
        requests = []
        for stack in range(24):
            requests.append((stack, ReadRequest.point(stack % TIERS, 30.0 + stack)))
            if stack % 3 == 0:
                requests.append((stack, ReadRequest.vt(stack % TIERS, 45.0)))
            if stack % 5 == 0:
                requests.append((stack, ReadRequest.scan(38.5)))

        remote = {}
        ring = HashRing(range(SHARDS))
        for key, (stack, request) in enumerate(requests):
            result = client.read(stack, request)
            assert result.ok
            remote[key] = result

        by_shard = {}
        for key, (stack, request) in enumerate(requests):
            by_shard.setdefault(ring.route(stack), []).append((key, request))
        deployment = EdgeDeployment.from_edge_config(edge.config)
        for shard_index, batch in sorted(by_shard.items()):
            with SensorReadService(
                config=deployment.serve_config(shard_index)
            ) as local:
                for key, request in batch:
                    local_result = local.read(request)
                    remote_result = remote[key]
                    assert remote_result.shard == shard_index
                    assert len(local_result.readings) == len(remote_result.readings)
                    for mine, theirs in zip(
                        local_result.readings, remote_result.readings
                    ):
                        assert mine.tier == theirs.tier
                        # Bitwise: JSON floats round-trip exactly.
                        assert mine.temperature_c == theirs.temperature_c
                        assert mine.dvtn == theirs.dvtn
                        assert mine.dvtp == theirs.dvtp

    def test_distinct_shards_serve_distinct_stacks(self, client):
        """Different shard seeds ⇒ different die populations."""
        ring = HashRing(range(SHARDS))
        by_shard = {}
        for stack in range(64):
            shard = ring.route(stack)
            if shard not in by_shard:
                by_shard[shard] = client.read(
                    stack, ReadRequest.vt(0, 50.0)
                ).readings[0].dvtn
            if len(by_shard) == SHARDS:
                break
        assert len(set(by_shard.values())) == len(by_shard)

# --------------------------------------------------- binary frame format


class TestBinaryFrameCodec:
    """Pure units: the length-prefixed binary frames (no processes)."""

    def _round_trip(self, payload):
        blob = protocol.encode_frame(payload)
        _version, kind, length = protocol.decode_frame_header(
            blob[: protocol.FRAME_HEADER_SIZE]
        )
        body = blob[protocol.FRAME_HEADER_SIZE :]
        assert len(body) == length
        return kind, protocol.decode_frame_body(kind, body)

    def test_hot_read_rides_the_packed_frame(self):
        payload = {
            "v": protocol.PROTOCOL_VERSION,
            "id": 7,
            "op": "read",
            "stack": 12,
            "request": protocol.request_to_wire(
                ReadRequest.point(1, 55.0), deadline_ms=250.0
            ),
        }
        kind, back = self._round_trip(payload)
        assert kind == protocol.FRAME_READ
        assert back == payload
        assert len(protocol.encode_frame(payload)) < len(protocol.encode(payload))

    @pytest.mark.parametrize(
        "request_",
        [
            ReadRequest.vt(2, 60.0),
            ReadRequest.scan(35.0, tiers=(0, 2)),
            ReadRequest.poll({0: 30.0, 1: 45.5, 3: 72.25}),
        ],
        ids=["vt", "scan", "poll"],
    )
    def test_every_request_kind_round_trips_packed(self, request_):
        payload = {
            "v": protocol.PROTOCOL_VERSION,
            "id": 1,
            "op": "read",
            "stack": 3,
            "request": protocol.request_to_wire(request_),
        }
        kind, back = self._round_trip(payload)
        assert kind == protocol.FRAME_READ
        assert back == payload

    def test_error_frame_round_trips_packed(self):
        payload = {
            "id": 9,
            "ok": False,
            "error": EdgeError(protocol.BACKPRESSURE, "window full").to_wire(),
        }
        kind, back = self._round_trip(payload)
        assert kind == protocol.FRAME_ERROR
        assert back["error"]["code"] == protocol.BACKPRESSURE
        assert back["error"]["retryable"] is True
        assert back["id"] == 9

    def test_string_ids_fall_back_to_the_json_body(self):
        payload = {
            "v": protocol.PROTOCOL_VERSION,
            "id": "c1",
            "op": "read",
            "stack": 0,
            "request": protocol.request_to_wire(ReadRequest.point(0, 40.0)),
        }
        kind, back = self._round_trip(payload)
        assert kind == protocol.FRAME_JSON
        assert back == payload

    def test_control_ops_ride_the_json_body(self):
        kind, back = self._round_trip({"id": 3, "op": "ping"})
        assert kind == protocol.FRAME_JSON
        assert back == {"id": 3, "op": "ping"}

    def test_short_header_is_malformed(self):
        with pytest.raises(EdgeError) as info:
            protocol.decode_frame_header(b"\xb7\x01")
        assert info.value.code == protocol.MALFORMED

    def test_bad_magic_is_malformed(self):
        header = protocol.FRAME_HEADER.pack(0x42, protocol.BINARY_VERSION, 0, 0)
        with pytest.raises(EdgeError) as info:
            protocol.decode_frame_header(header)
        assert info.value.code == protocol.MALFORMED

    def test_wrong_version_is_invalid_but_length_still_parses(self):
        header = protocol.FRAME_HEADER.pack(protocol.BINARY_MAGIC, 99, 0, 123)
        with pytest.raises(EdgeError) as info:
            protocol.decode_frame_header(header)
        assert info.value.code == protocol.INVALID
        # The header layout holds across versions: a peer may still skip
        # the declared body and keep the connection.
        assert protocol.FRAME_HEADER.unpack(header)[3] == 123

    def test_truncated_body_is_malformed(self):
        blob = protocol.encode_frame(
            {
                "id": 1,
                "op": "read",
                "stack": 0,
                "request": protocol.request_to_wire(ReadRequest.point(0, 40.0)),
            }
        )
        body = blob[protocol.FRAME_HEADER_SIZE : -4]
        with pytest.raises(EdgeError) as info:
            protocol.decode_frame_body(protocol.FRAME_READ, body)
        assert info.value.code == protocol.MALFORMED


def _send_frames(sock, *payloads):
    sock.sendall(b"".join(protocol.encode_frame(p) for p in payloads))


def _recv_frame(reader):
    header = reader.read(protocol.FRAME_HEADER_SIZE)
    _version, kind, length = protocol.decode_frame_header(header)
    return protocol.decode_frame_body(kind, reader.read(length))


class TestBinaryWireLive:
    """The server's binary face over real sockets (hostile inputs too)."""

    def test_read_and_ping_on_one_binary_connection(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            _send_frames(
                sock,
                {
                    "v": protocol.PROTOCOL_VERSION,
                    "id": 1,
                    "op": "read",
                    "stack": 3,
                    "request": protocol.request_to_wire(ReadRequest.point(1, 55.0)),
                },
                {"id": 2, "op": "ping"},
            )
            answers = {a["id"]: a for a in (_recv_frame(reader), _recv_frame(reader))}
            assert answers[1]["ok"] is True
            assert answers[1]["result"]["readings"][0]["tier"] == 1
            assert answers[2]["ok"] is True and answers[2]["pong"] == "edge"
        finally:
            sock.close()

    def test_binary_answers_match_ndjson_bit_for_bit(self, edge, client):
        request = ReadRequest.point(1, 58.25)
        over_json = client.read(6, request)
        with EdgeClient(edge.host, edge.port, wire="binary") as binary:
            over_frames = binary.read(6, request)
        assert over_frames.shard == over_json.shard
        for mine, theirs in zip(over_frames.readings, over_json.readings):
            assert mine.temperature_c == theirs.temperature_c
            assert mine.dvtn == theirs.dvtn
            assert mine.dvtp == theirs.dvtp

    def test_nan_vdd_is_refused_alike_on_both_wires(self, edge):
        request = {"kind": "point_read", "tier": 0, "temp_c": 25.0, "vdd": float("nan")}
        answers = []
        for wire in ("ndjson", "binary"):
            with EdgeClient(edge.host, edge.port, wire=wire) as c:
                answers.append(c.raw({"op": "read", "stack": 2, "request": request}))
        over_json, over_frames = answers
        assert over_json["ok"] is False
        assert over_json["error"]["code"] == protocol.INVALID
        assert "vdd must be finite" in over_json["error"]["message"]
        assert over_frames["error"] == over_json["error"]
        assert over_frames.get("shard") == over_json.get("shard")

    @pytest.mark.parametrize("op", [[1], {"a": 1}], ids=["list", "object"])
    def test_unhashable_op_is_typed_and_connection_survives(self, edge, op):
        sock, reader = _raw_connection(edge)
        try:
            _send_frames(sock, {"id": 1, "op": op}, {"id": 2, "op": "ping"})
            answer = _recv_frame(reader)
            assert answer["id"] == 1 and answer["ok"] is False
            assert answer["error"]["code"] == protocol.UNKNOWN_OP
            assert answer["error"]["retryable"] is False
            answer = _recv_frame(reader)
            assert answer["id"] == 2 and answer["ok"] is True
        finally:
            sock.close()

    def test_bad_magic_mid_stream_is_answered_then_closed(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            _send_frames(sock, {"id": 1, "op": "ping"})
            assert _recv_frame(reader)["ok"] is True
            # Garbage where a header should be: no resync point exists,
            # so the server answers typed and hangs up.
            sock.sendall(b"\x00" * protocol.FRAME_HEADER_SIZE)
            answer = _recv_frame(reader)
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.MALFORMED
            assert reader.read() == b""  # server closed the connection
        finally:
            sock.close()

    def test_wrong_version_is_answered_and_connection_survives(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            body = b"x" * 16
            sock.sendall(
                protocol.FRAME_HEADER.pack(protocol.BINARY_MAGIC, 99, 0, len(body))
                + body
            )
            answer = _recv_frame(reader)
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.INVALID
            # The declared body was skipped; the connection still serves.
            _send_frames(sock, {"id": 2, "op": "ping"})
            assert _recv_frame(reader)["id"] == 2
        finally:
            sock.close()

    def test_oversized_declared_length_is_answered_and_survives(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            body = b"y" * (2 * MAX_LINE)
            sock.sendall(
                protocol.FRAME_HEADER.pack(
                    protocol.BINARY_MAGIC,
                    protocol.BINARY_VERSION,
                    protocol.FRAME_JSON,
                    len(body),
                )
                + body
            )
            answer = _recv_frame(reader)
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.OVERSIZED
            _send_frames(sock, {"id": 2, "op": "ping"})
            assert _recv_frame(reader)["id"] == 2
        finally:
            sock.close()

    def test_truncated_header_at_eof_closes_quietly(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(bytes([protocol.BINARY_MAGIC]) + b"\x01\x00")
            sock.shutdown(socket.SHUT_WR)
            assert reader.read() == b""  # no answer, just a clean close
        finally:
            sock.close()

    def test_ndjson_line_on_a_binary_connection_is_rejected_typed(self, edge):
        # The first byte pins the connection's protocol; a '{' where a
        # frame header should be is a bad magic byte.
        sock, reader = _raw_connection(edge)
        try:
            _send_frames(sock, {"id": 1, "op": "ping"})
            assert _recv_frame(reader)["ok"] is True
            sock.sendall(protocol.encode({"id": "late", "op": "ping"}))
            answer = _recv_frame(reader)
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.MALFORMED
            assert reader.read() == b""
        finally:
            sock.close()

    def test_binary_frame_on_an_ndjson_connection_is_rejected_typed(self, edge):
        # The mirror image: a connection that opened with '{' stays
        # NDJSON; a frame is just a malformed line once a newline shows.
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(protocol.encode({"id": "first", "op": "ping"}))
            assert json.loads(reader.readline())["ok"] is True
            sock.sendall(protocol.encode_frame({"id": 2, "op": "ping"}) + b"\n")
            answer = json.loads(reader.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == protocol.MALFORMED
            # The NDJSON face resyncs on newlines: still serving.
            sock.sendall(protocol.encode({"id": "again", "op": "ping"}))
            assert json.loads(reader.readline())["id"] == "again"
        finally:
            sock.close()


# --------------------------------------------------------- HTTP keep-alive


def _read_http_response(reader):
    status_line = reader.readline().decode("latin-1")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline().decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


class TestHttpKeepAlive:
    def test_many_exchanges_reuse_one_connection(self, edge):
        conn = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            socks = set()
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.headers["Connection"] == "keep-alive"
                socks.add(id(conn.sock))
            assert len(socks) == 1, "keep-alive must not reconnect per request"
        finally:
            conn.close()

    def test_pipelined_requests_on_one_socket(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            request = b"GET /healthz HTTP/1.1\r\nHost: edge\r\n\r\n"
            sock.sendall(request * 2)  # both in flight before any answer
            for _ in range(2):
                status, headers, body = _read_http_response(reader)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["status"] == "ok"
        finally:
            sock.close()

    def test_connection_close_header_is_honored(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n"
            )
            status, headers, _body = _read_http_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert reader.read() == b""
        finally:
            sock.close()

    def test_http_10_defaults_to_close(self, edge):
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: edge\r\n\r\n")
            status, headers, _body = _read_http_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert reader.read() == b""
        finally:
            sock.close()

    def test_oversized_content_length_is_answered_then_closed(self, edge):
        # The unread body would poison the stream, so the typed answer
        # (not a reset) is followed by a close.
        sock, reader = _raw_connection(edge)
        try:
            sock.sendall(
                b"POST /v1/read HTTP/1.1\r\nHost: edge\r\n"
                + f"Content-Length: {4 * MAX_LINE}\r\n\r\n".encode()
            )
            status, headers, body = _read_http_response(reader)
            assert status == protocol.HTTP_STATUS[protocol.OVERSIZED]
            assert json.loads(body)["error"]["code"] == protocol.OVERSIZED
            assert headers["connection"] == "close"
            assert reader.read() == b""
        finally:
            sock.close()


# ------------------------------------- idle timeout and status caching


@pytest.fixture(scope="module")
def tiny_edge():
    """A 1-shard server with a short idle timeout and status caching."""
    config = EdgeConfig(
        shards=1,
        tiers=2,
        root_seed=ROOT_SEED,
        idle_timeout_s=1.0,
        status_cache_s=30.0,
        health_interval_s=0.2,
    )
    server = EdgeServerThread(config).start()
    yield server
    server.stop(drain=True)


class TestIdleTimeoutAndStatusCache:
    def test_idle_connection_is_closed_after_the_timeout(self, tiny_edge):
        sock, reader = _raw_connection(tiny_edge)
        try:
            sock.settimeout(10.0)
            sock.sendall(protocol.encode({"id": "warm", "op": "ping"}))
            assert json.loads(reader.readline())["ok"] is True
            started = time.monotonic()
            assert reader.readline() == b""  # server hangs up on the idler
            elapsed = time.monotonic() - started
            assert 0.5 <= elapsed < 8.0
        finally:
            sock.close()

    def test_status_bodies_are_served_from_the_cache(self, tiny_edge):
        conn = HTTPConnection(tiny_edge.host, tiny_edge.port, timeout=30.0)
        try:
            conn.request("GET", "/metrics")
            first = conn.getresponse().read()
            # Serve a read (moves the live counters), then scrape again:
            # within status_cache_s the rendered body must not change.
            with EdgeClient(tiny_edge.host, tiny_edge.port) as client:
                assert client.read(0, ReadRequest.point(0, 45.0)).ok
            conn.request("GET", "/metrics")
            second = conn.getresponse().read()
            assert first == second
            conn.request("GET", "/healthz")
            cached_health = conn.getresponse().read()
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == cached_health
        finally:
            conn.close()


# --------------------------------------------- client failure semantics


class _TruncatingServer(threading.Thread):
    """Accepts connections, then dies mid-response: a fragment, no newline."""

    def __init__(self):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def run(self):
        while True:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            with conn:
                try:
                    conn.recv(65536)
                    conn.sendall(b'{"id": "c1", "ok": tr')  # cut mid-answer
                except OSError:
                    pass

    def stop(self):
        self.listener.close()


@pytest.fixture()
def truncating_server():
    server = _TruncatingServer()
    server.start()
    yield server
    server.stop()


class TestClientPartialResponse:
    # Never a JSON decode crash: the fragment at EOF maps to the typed,
    # retryable `closed` error (both attempts truncated), on both clients.
    RETRY = RetryPolicy(attempts=2, backoff_s=0.01)

    def test_truncated_response_is_a_typed_retryable_closed_error(
        self, truncating_server
    ):
        client = EdgeClient("127.0.0.1", truncating_server.port, retry=self.RETRY)
        with client, pytest.raises(EdgeError) as info:
            client.read(0, ReadRequest.point(0, 45.0))
        assert info.value.code == protocol.CLOSED
        assert info.value.retryable is True

    def test_async_client_raises_the_same_closed_error(self, truncating_server):
        async def go():
            async with AsyncEdgeClient(
                "127.0.0.1", truncating_server.port, retry=self.RETRY
            ) as client:
                await client.read(0, ReadRequest.point(0, 45.0))

        with pytest.raises(EdgeError) as info:
            asyncio.run(go())
        assert info.value.code == protocol.CLOSED
        assert info.value.retryable is True


# ------------------------------------------------- coalesced worker IPC


class TestCoalescedWorkerIpc:
    def test_bad_item_in_a_coalesced_batch_fails_alone(self):
        workers = [
            WorkerConfig(shard_index=0, seed=shard_seed(ROOT_SEED, 0), tiers=2)
        ]
        pool = ShardPool(workers, ipc_batch=8, ipc_linger_s=0.05)
        pool.start(health_checks=False)
        try:
            good = protocol.request_to_wire(ReadRequest.point(0, 45.0))
            bad = {"kind": "warp", "temp_c": 25.0}
            futures = [
                pool.submit_read(0, good),
                pool.submit_read(0, bad),
                pool.submit_read(0, good),
            ]
            answers = [f.result(timeout=30.0) for f in futures]
        finally:
            pool.close()
        assert answers[0]["ok"] is True
        assert answers[2]["ok"] is True
        assert answers[1]["ok"] is False
        assert answers[1]["error"]["code"] == protocol.INVALID

    def test_single_message_ipc_still_serves(self):
        # ipc_batch=1 is the uncoalesced wire: exactly the old behavior.
        workers = [
            WorkerConfig(shard_index=0, seed=shard_seed(ROOT_SEED, 0), tiers=2)
        ]
        pool = ShardPool(workers, ipc_batch=1, ipc_linger_s=0.0)
        pool.start(health_checks=False)
        try:
            wire = protocol.request_to_wire(ReadRequest.point(0, 45.0))
            answers = [
                pool.submit_read(i, wire).result(timeout=30.0) for i in range(4)
            ]
        finally:
            pool.close()
        assert all(a["ok"] for a in answers)
