"""Golden wire transcript of every control op on every face.

One live edge (2 fork-started shards, an admin token, chaos enabled)
answers a fixed script of operations over NDJSON, binary frames and
HTTP/1.1, one operation at a time.  The answers must match the
checked-in transcript ``tests/golden/edge_transcript.json`` byte for
byte, except for the fields named in :data:`MASKED_FIELDS`, which
differ between two boots of the same deployment.

The script covers every op in the protocol vocabulary except ``read``
(pinned bit for bit by ``TestGoldenCrossProcessDeterminism`` in
``tests/test_edge.py``): on NDJSON, on binary frames, and on the op's
HTTP route where it has one.  It also covers an unknown op, unknown
verbs under both control prefixes, ``POST`` on both status routes, a
missing and a wrong token on every ``admin.*`` op, a bad argument for
every control verb that takes one, and the ``stream.*`` acks.

Regenerate the golden file (only for a deliberate wire change) with::

    PYTHONPATH=src python tests/test_edge_transcript.py
"""

import json
import re
import socket
import sys
from pathlib import Path

import pytest

from repro.edge import EdgeConfig, EdgeServerThread, StreamPolicy, protocol

GOLDEN = Path(__file__).resolve().parent / "golden" / "edge_transcript.json"

#: Answer fields that differ between two boots of the same deployment
#: (worker process ids); their values are masked before comparison.
MASKED_FIELDS = ("pid",)

TOKEN = "s3cret"

_MASK = re.compile(
    r'"(' + "|".join(MASKED_FIELDS) + r')":(null|-?\d+)'
)


def _mask(text: str) -> str:
    return _MASK.sub(r'"\1":"*"', text)


def _config() -> EdgeConfig:
    return EdgeConfig(
        shards=2,
        tiers=2,
        root_seed=2012,
        start_method="fork",
        admin_token=TOKEN,
        enable_chaos=True,
        window=32,
        # A parked sampler: the stream plane's rollup count in
        # admin.status then does not depend on how long the run takes.
        stream=StreamPolicy(sample_s=3600.0),
    )


# ------------------------------------------------------------------ script

_ADMIN_BAD_ARGS = {
    protocol.ADMIN_SCALE: {"shards": 0},
    protocol.ADMIN_DRAIN_SHARD: {"shard": "x"},
    protocol.ADMIN_RESTART: {"shard": "x"},
}

_DTM_BAD_ARGS = {
    protocol.DTM_THROTTLE: {"stack": "x", "tier": 0, "round": 1},
    protocol.DTM_RELEASE: {"stack": 1, "tier": 0},
    protocol.DTM_DECISIONS: {"since": -1},
}


def _token_refusals(face):
    """A missing and a wrong token on every admin op."""
    steps = []
    for op in sorted(protocol.ADMIN_OPS):
        steps.append((face, {"op": op}))
        steps.append((face, {"op": op, "token": "nope"}))
    return steps


def _http(method, target, body=b"", headers=None):
    return ("http", (method, target, dict(headers or {}), body))


def _http_token_refusals():
    steps = []
    for op in sorted(protocol.ADMIN_OPS):
        verb = op.split(".", 1)[1]
        method = "GET" if op == protocol.ADMIN_STATUS else "POST"
        body = b"" if method == "GET" else b'{"shards":3,"shard":1}'
        steps.append(_http(method, f"/v1/admin/{verb}", body))
        steps.append(
            _http(method, f"/v1/admin/{verb}", body, {"X-Admin-Token": "nope"})
        )
    return steps


def _script():
    token = {"token": TOKEN}
    auth = {"X-Admin-Token": TOKEN}
    steps = []
    for face in ("ndjson", "binary"):
        steps += [
            (face, {"op": "ping"}),
            (face, {"op": "stats"}),
            (face, {"op": "teleport"}),
            (face, {"op": "admin.explode", **token}),
        ]
        steps += _token_refusals(face)
        steps += [
            (face, {"op": op, **args, **token})
            for op, args in sorted(_ADMIN_BAD_ARGS.items())
        ]
        steps += [(face, {"op": protocol.ADMIN_STATUS, **token})]
        steps += [
            (face, {"op": op, **args})
            for op, args in sorted(_DTM_BAD_ARGS.items())
        ]
        steps += [
            (face, {"op": protocol.STREAM_SUBSCRIBE, "kinds": "alert"}),
            (face, {"op": protocol.STREAM_UNSUBSCRIBE, "subscription": 999}),
            (face, {"op": protocol.STREAM_SUBSCRIBE, "queue": 0}),
            (face, {"op": "chaos", "shard": 0, "kind": "nope"}),
            (face, {"op": "chaos", "shard": 99}),
        ]
    steps += _http_token_refusals()
    steps += [
        _http("GET", "/v1/admin/status", headers=auth),
        # A GET ignores its body: the wrong token in it is never read.
        _http("GET", "/v1/admin/status", b'{"token":"nope"}', auth),
        _http("POST", "/v1/admin/status", headers=auth),
        _http("POST", "/v1/admin/status", b'{"id":"h1","token":"s3cret"}'),
        _http("POST", "/v1/admin/explode", b"{}", auth),
        _http("POST", "/v1/admin/", b"{}", auth),
        _http("GET", "/v1/admin/scale", headers=auth),
        _http("POST", "/v1/admin/scale", b"not json", auth),
        _http("POST", "/v1/admin/scale?shards=3", b"{}", auth),
        _http("POST", "/v1/admin/drain_shard", b'{"shard":"x"}', auth),
        _http("POST", "/v1/admin/restart", b'{"shard":"x"}', auth),
        _http("POST", "/v1/admin/scale", b'{"shards":0}', auth),
        _http("GET", "/v1/dtm/status"),
        _http("GET", "/v1/dtm/status", b"not json"),
        _http("POST", "/v1/dtm/status"),
        _http("POST", "/v1/dtm/explode", b"{}"),
        _http("GET", "/v1/dtm/throttle"),
        _http("POST", "/v1/dtm/throttle", b'{"stack":"x","tier":0,"round":1}'),
        _http("POST", "/v1/dtm/release", b'{"stack":1,"tier":0}'),
        _http("POST", "/v1/dtm/decisions", b'{"since":-1}'),
        _http("GET", "/v1/nowhere"),
        _http("DELETE", "/v1/admin/status", headers=auth),
    ]
    # Topology changes, one face at a time: grow, drain, restart.
    steps += [
        ("ndjson", {"op": protocol.ADMIN_SCALE, "shards": 3, **token}),
        ("binary", {"op": protocol.ADMIN_DRAIN_SHARD, "shard": 2, **token}),
        _http("POST", "/v1/admin/scale", b'{"shards":3}', auth),
        ("ndjson", {"op": protocol.ADMIN_DRAIN_SHARD, "shard": 2, **token}),
        ("binary", {"op": protocol.ADMIN_SCALE, "shards": 3, **token}),
        _http("POST", "/v1/admin/drain_shard", b'{"id":7,"shard":2}', auth),
        ("ndjson", {"op": protocol.ADMIN_RESTART, "shard": 1, **token}),
        ("binary", {"op": protocol.ADMIN_RESTART, "shard": 0, **token}),
        _http("POST", "/v1/admin/restart", b'{"shard":1,"token":"s3cret"}'),
        ("ndjson", {"op": protocol.ADMIN_STATUS, **token}),
    ]
    # The dtm verbs: not token-gated, idempotent by round.
    steps += [
        ("ndjson", {"op": protocol.DTM_THROTTLE, "stack": 1, "tier": 0, "round": 1}),
        ("binary", {"op": protocol.DTM_THROTTLE, "stack": 1, "tier": 0, "round": 1}),
        _http("POST", "/v1/dtm/throttle",
              b'{"stack":1,"tier":1,"round":2,"latency_ms":1.5}'),
        ("binary", {"op": protocol.DTM_RELEASE, "stack": 1, "tier": 0, "round": 3}),
        _http("POST", "/v1/dtm/release", b'{"stack":1,"tier":1,"round":4}'),
        ("ndjson", {"op": protocol.DTM_RELEASE, "stack": 2, "tier": 0, "round": 5,
                    "latency_ms": 0.25}),
        ("ndjson", {"op": protocol.DTM_STATUS}),
        ("binary", {"op": protocol.DTM_STATUS}),
        ("ndjson", {"op": protocol.DTM_DECISIONS, "since": 0}),
        ("binary", {"op": protocol.DTM_DECISIONS, "since": 2}),
        _http("POST", "/v1/dtm/decisions", b'{"since":1}', auth),
        ("ndjson", {"op": protocol.DTM_RESET}),
        ("binary", {"op": protocol.DTM_RESET}),
        _http("POST", "/v1/dtm/reset", b'{"id":"r"}'),
        ("binary", {"op": protocol.ADMIN_STATUS, **token}),
    ]
    # Stream acks, then the chaos hooks that end the run.
    steps += [
        ("ndjson", {"op": protocol.STREAM_SUBSCRIBE, "kinds": ["alert"], "queue": 8}),
        ("ndjson", {"op": protocol.STREAM_UNSUBSCRIBE, "subscription": "$sub"}),
        ("binary", {"op": protocol.STREAM_SUBSCRIBE, "metrics": ["edge."],
                    "kinds": ["alert"]}),
        ("binary", {"op": protocol.STREAM_UNSUBSCRIBE, "subscription": "$sub"}),
        ("ndjson", {"op": "chaos", "shard": 0, "kind": "exit"}),
        ("binary", {"op": "chaos", "shard": 1}),
    ]
    return steps


# ------------------------------------------------------------------ faces


class _Faces:
    """One persistent connection per face, one operation at a time."""

    def __init__(self, host, port):
        self.socks = {
            face: socket.create_connection((host, port), timeout=60.0)
            for face in ("ndjson", "binary", "http")
        }
        self.files = {face: sock.makefile("rb") for face, sock in self.socks.items()}
        self.next_id = 0
        self.last_subscription = None

    def close(self):
        for face in self.socks:
            self.files[face].close()
            self.socks[face].close()

    def run(self, face, request):
        if face == "http":
            return self._http(*request)
        self.next_id += 1
        payload = {"id": self.next_id if face == "binary" else f"n{self.next_id}"}
        payload.update(request)
        if payload.get("subscription") == "$sub":
            payload["subscription"] = self.last_subscription
        if face == "ndjson":
            answer = self._ndjson(payload)
        else:
            answer = self._binary(payload)
        return payload, answer

    def _ndjson(self, payload):
        self.socks["ndjson"].sendall(protocol.encode(payload))
        while True:
            line = self.files["ndjson"].readline()
            assert line.endswith(b"\n"), f"connection closed after {payload}"
            answer = json.loads(line)
            if answer.get("id") == payload["id"]:
                self._note(answer)
                return _mask(line[:-1].decode("utf-8"))

    def _binary(self, payload):
        self.socks["binary"].sendall(protocol.encode_frame(payload))
        reader = self.files["binary"]
        while True:
            header = reader.read(protocol.FRAME_HEADER_SIZE)
            assert len(header) == protocol.FRAME_HEADER_SIZE, (
                f"connection closed after {payload}"
            )
            magic, version, flags, length = protocol.FRAME_HEADER.unpack(header)
            body = reader.read(length)
            answer = protocol.decode_frame_body(flags & 0xF, body)
            if answer.get("id") != payload["id"]:
                continue
            self._note(answer)
            if flags == protocol.FRAME_JSON:
                shown = _mask(body.decode("utf-8"))
            else:
                shown = body.hex()
            return f"{magic:02x} {version:02x} {flags:04x} {shown}"

    def _http(self, method, target, headers, body):
        head = [f"{method} {target} HTTP/1.1", "Host: edge"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        if body:
            head.append(f"Content-Length: {len(body)}")
        blob = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        self.socks["http"].sendall(blob)
        reader = self.files["http"]
        lines = []
        while True:
            line = reader.readline()
            assert line, f"connection closed after {method} {target}"
            if line == b"\r\n":
                break
            lines.append(line.decode("latin-1").rstrip("\r\n"))
        length = next(
            int(line.split(":", 1)[1]) for line in lines
            if line.lower().startswith("content-length:")
        )
        text = _mask(reader.read(length).decode("utf-8"))
        lines = [
            f"Content-Length: {len(text.encode('utf-8'))}"
            if line.lower().startswith("content-length:") else line
            for line in lines
        ]
        sent = [method, target, headers, body.decode("latin-1")]
        return sent, "\r\n".join(lines) + "\r\n\r\n" + text

    def _note(self, answer):
        if "subscription" in answer and "queue" in answer:
            self.last_subscription = answer["subscription"]


def record_transcript():
    """Boot a fresh edge, run the script, return the masked transcript."""
    with EdgeServerThread(_config()) as edge:
        faces = _Faces(edge.host, edge.port)
        try:
            return [
                [face, *faces.run(face, request)] for face, request in _script()
            ]
        finally:
            faces.close()


@pytest.fixture(scope="module")
def transcript():
    return record_transcript()


def test_transcript_matches_the_golden_file(transcript):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(transcript) == len(golden)
    for mine, theirs in zip(transcript, golden):
        assert mine == theirs


def test_transcript_covers_every_non_read_op_on_every_face(transcript):
    seen = set()
    for face, sent, _answer in transcript:
        if face == "http":
            method, target = sent[0], sent[1]
            seen.add((face, method, target))
        else:
            seen.add((face, sent["op"]))
    ops = (
        {"ping", "stats", "chaos"}
        | protocol.ADMIN_OPS
        | protocol.STREAM_OPS
        | protocol.DTM_OPS
    )
    for op in ops:
        assert ("ndjson", op) in seen and ("binary", op) in seen, op
    for op in protocol.ADMIN_OPS | protocol.DTM_OPS:
        family, verb = op.split(".", 1)
        method = "GET" if verb == "status" else "POST"
        assert ("http", method, f"/v1/{family}/{verb}") in seen, op


def test_masked_fields_are_the_only_masks():
    assert _mask('{"pid":123,"shard":1}') == '{"pid":"*","shard":1}'
    assert _mask('{"pids":1,"id":2}') == '{"pids":1,"id":2}'


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(record_transcript(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
