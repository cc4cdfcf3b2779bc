"""The fleet layer: placement, hedged reads, failover, resume, labels.

Three tiers of coverage:

* **pure** — :class:`FleetDirectory` placement (rendezvous order,
  failure domains, per-tier replication, generations),
  :class:`FleetRouter` health-aware targeting, and the
  :class:`LatencyTracker` budget math run with no sockets at all;
* **live, two hosts** — a shared pair of real localhost edge servers
  (identical ``root_seed``, one stalled by an injected
  ``EdgeConfig.stall_ms``) carries the golden cross-host determinism
  check over both wires, the exact hedge/loser accounting, the SSE
  resume/replay surface and the per-state ``/metrics`` labels;
* **live, chaos** — a private two-host fleet whose primary is killed
  mid-run: the client must fail over to the survivor with zero
  non-retryable errors.

The determinism guarantee under test is the one the whole fleet design
leans on: deployments sharing a ``root_seed`` answer bit-identically on
every host and over every wire (``cache_hit`` excepted — whether a
*particular host* had the answer cached is serving metadata, not
physics).
"""

import json
import socket
import urllib.request

import pytest

from repro.edge import (
    EdgeClient,
    EdgeConfig,
    EdgeError,
    EdgeServerThread,
)
from repro.edge.client import RetryPolicy
from repro.fleet import (
    FleetClient,
    FleetDirectory,
    FleetRouter,
    HedgePolicy,
    HostSpec,
    LatencyTracker,
)
from repro.fleet.client import HOST_DEAD, HOST_DEGRADED, HOST_HEALTHY
from repro.serve import ReadRequest
from repro.telemetry.stream import StreamHub

TIERS = 4
ROOT_SEED = 2012
STALL_MS = 150.0


def _hosts(count, domains=None):
    return tuple(
        HostSpec(
            name=f"h{i}",
            host="127.0.0.1",
            port=9000 + i,
            domain=domains[i] if domains else f"d{i}",
        )
        for i in range(count)
    )


# ---------------------------------------------------------------- placement


class TestDirectoryPlacement:
    def test_every_shard_gets_its_replication_factor(self):
        directory = FleetDirectory(hosts=_hosts(5), shards=16, replication=3)
        for shard, names in directory.placement().items():
            assert len(names) == 3
            assert len(set(names)) == 3

    def test_no_two_replicas_share_a_domain_when_domains_suffice(self):
        directory = FleetDirectory(hosts=_hosts(6), shards=32, replication=3)
        for shard in range(32):
            domains = [spec.domain for spec in directory.replicas(shard)]
            assert len(set(domains)) == len(domains)

    def test_domain_constraint_relaxes_rather_than_under_replicate(self):
        # 4 hosts in only 2 domains, replication 3: placement must still
        # produce 3 replicas, reusing a domain.
        hosts = _hosts(4, domains=["a", "a", "b", "b"])
        directory = FleetDirectory(hosts=hosts, shards=8, replication=3)
        for shard in range(8):
            replicas = directory.replicas(shard)
            assert len(replicas) == 3
            # Both domains are still represented before any is reused.
            assert {spec.domain for spec in replicas} == {"a", "b"}

    def test_placement_independent_of_declaration_order(self):
        forward = FleetDirectory(hosts=_hosts(5), shards=16)
        backward = FleetDirectory(hosts=tuple(reversed(_hosts(5))), shards=16)
        assert forward.placement() == backward.placement()

    def test_removing_a_host_only_moves_its_own_shards(self):
        before = FleetDirectory(hosts=_hosts(5), shards=32)
        after = before.without("h2")
        for shard in range(32):
            old = before.placement()[shard]
            new = after.placement()[shard]
            if "h2" not in old:
                assert new == old
            else:
                # Survivors keep their slots; only h2's slot is refilled.
                assert [n for n in old if n != "h2"] == [
                    n for n in new if n in old
                ]

    def test_generations_stamp_every_membership_change(self):
        directory = FleetDirectory(hosts=_hosts(3), shards=4)
        assert directory.generation == 0
        removed = directory.without("h1")
        assert removed.generation == 1
        returned = removed.with_host(directory.host("h1"))
        assert returned.generation == 2
        with pytest.raises(ValueError):
            directory.without("nope")

    def test_per_tier_replication(self):
        directory = FleetDirectory(
            hosts=_hosts(4),
            shards=4,
            replication={"standard": 2, "hot": 3},
            shard_tiers={0: "hot"},
        )
        assert len(directory.replicas(0)) == 3
        assert len(directory.replicas(1)) == 2
        assert directory.tier_of(0) == "hot"

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetDirectory(hosts=(), shards=2)
        with pytest.raises(ValueError):
            FleetDirectory(hosts=_hosts(2), shards=2, replication=3)
        with pytest.raises(ValueError):
            FleetDirectory(hosts=_hosts(2) + _hosts(1), shards=2)

    def test_route_is_consistent_with_replicas_for_stack(self):
        directory = FleetDirectory(hosts=_hosts(3), shards=8)
        for stack in range(50):
            shard = directory.route(stack)
            assert directory.replicas_for_stack(stack) == directory.replicas(
                shard
            )


class TestHostSpecParse:
    def test_full_form(self):
        spec = HostSpec.parse("edge9=10.0.0.9:7009@rack3")
        assert (spec.name, spec.host, spec.port, spec.domain) == (
            "edge9", "10.0.0.9", 7009, "rack3",
        )

    def test_name_defaults_to_address(self):
        spec = HostSpec.parse("10.0.0.9:7009")
        assert spec.name == "10.0.0.9:7009"
        assert spec.domain == "default"

    def test_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            HostSpec.parse("nohost")
        with pytest.raises(ValueError):
            HostSpec.parse("a=b:notaport")


# ------------------------------------------------------------------- router


class TestFleetRouter:
    def test_degraded_hosts_are_demoted_not_dropped(self):
        directory = FleetDirectory(hosts=_hosts(3), shards=4, replication=2)
        router = FleetRouter(directory)
        stack = 0
        primary = directory.replicas_for_stack(stack)[0]
        router.mark(primary.name, HOST_DEGRADED)
        targets = router.targets(stack)
        assert [t.name for t in targets][-1] == primary.name
        assert len(targets) == 2

    def test_dead_hosts_are_skipped(self):
        directory = FleetDirectory(hosts=_hosts(3), shards=4, replication=2)
        router = FleetRouter(directory)
        stack = 0
        primary = directory.replicas_for_stack(stack)[0]
        router.mark(primary.name, HOST_DEAD)
        targets = router.targets(stack)
        assert primary.name not in [t.name for t in targets]
        router.mark(primary.name, HOST_HEALTHY)
        assert router.targets(stack)[0].name == primary.name

    def test_stale_generation_is_refused(self):
        directory = FleetDirectory(hosts=_hosts(3), shards=4)
        router = FleetRouter(directory)
        successor = directory.without("h0")
        assert router.update_directory(successor)
        assert not router.update_directory(directory)  # generation 0 again
        assert router.directory.generation == successor.generation

    def test_mark_rejects_unknown_state(self):
        router = FleetRouter(FleetDirectory(hosts=_hosts(2), shards=2))
        with pytest.raises(ValueError):
            router.mark("h0", "wounded")


# ------------------------------------------------------------- hedge budget


class TestHedgeBudget:
    def test_initial_budget_below_min_samples(self):
        policy = HedgePolicy(initial_budget_ms=25.0, min_samples=4)
        tracker = LatencyTracker()
        tracker.observe("a", 5.0)
        assert tracker.budget_ms("a", policy) == 25.0

    def test_quantile_clamped_to_floor_and_ceiling(self):
        policy = HedgePolicy(
            quantile=0.5, min_budget_ms=3.0, max_budget_ms=40.0, min_samples=4
        )
        tracker = LatencyTracker()
        for _ in range(8):
            tracker.observe("fast", 0.2)
            tracker.observe("slow", 900.0)
        assert tracker.budget_ms("fast", policy) == 3.0
        assert tracker.budget_ms("slow", policy) == 40.0

    def test_reset_drops_every_window(self):
        policy = HedgePolicy(initial_budget_ms=11.0, min_samples=2)
        tracker = LatencyTracker()
        for _ in range(4):
            tracker.observe("a", 500.0)
        assert tracker.budget_ms("a", policy) != 11.0
        tracker.reset()
        assert tracker.budget_ms("a", policy) == 11.0


# ----------------------------------------------------------- live fixtures


@pytest.fixture(scope="module")
def pair():
    """Two identical-seed localhost hosts; ``slow`` is stalled 150 ms."""
    servers = []
    specs = []
    try:
        for index, stall in enumerate((0.0, STALL_MS)):
            config = EdgeConfig(
                port=0,
                shards=1,
                tiers=TIERS,
                root_seed=ROOT_SEED,
                start_method="fork",
                stall_ms=stall,
            )
            server = EdgeServerThread(config).start()
            servers.append(server)
            specs.append(
                HostSpec(
                    name=("fast", "slow")[index],
                    host=server.host,
                    port=server.port,
                    domain=f"dom{index}",
                )
            )
        # 4 fleet shards: rendezvous order makes each host primary for
        # two of them, so both hedge directions are reachable.
        directory = FleetDirectory(
            hosts=tuple(specs), shards=4, replication=2
        )
        yield servers, directory
    finally:
        for server in servers:
            server.stop(drain=False)


def _physics(result):
    """The deterministic part of an answer (cache_hit is host-local)."""
    return tuple(
        (
            r.tier, r.temperature_c, r.dvtn, r.dvtp,
            r.converged, r.quality, r.conversion_time, r.energy_j,
        )
        for r in result.readings
    )


# ----------------------------------------------- golden cross-host answers


class TestCrossHostDeterminism:
    def test_every_host_and_wire_answers_bit_identically(self, pair):
        _, directory = pair
        requests = [
            ReadRequest.point(1, 42.0),
            ReadRequest.point(3, 77.5),
            ReadRequest.scan(55.0, tiers=(0, 2)),
        ]
        for stack in (0, 7):
            answers = {}
            for spec in directory.hosts:
                for wire in ("ndjson", "binary"):
                    with EdgeClient(spec.host, spec.port, wire=wire) as client:
                        answers[(spec.name, wire)] = [
                            _physics(client.read(stack, request))
                            for request in requests
                        ]
            golden = answers[("fast", "ndjson")]
            for key, payload in answers.items():
                assert payload == golden, f"{key} diverged from fast/ndjson"


# --------------------------------------------------- exact hedge accounting


class TestHedgedReadAccounting:
    def test_hedge_fires_wins_and_counts_the_loser(self, pair):
        _, directory = pair
        # A stack whose primary is the stalled host: the hedge must fire
        # (150 ms stall vs a 5 ms budget) and the warm fast secondary
        # must win every race.
        stack = next(
            s for s in range(64)
            if directory.replicas_for_stack(s)[0].name == "slow"
        )
        request = ReadRequest.point(1, 42.0)
        hedge = HedgePolicy(
            initial_budget_ms=5.0, min_samples=512  # pin the budget
        )
        rounds = 4
        with FleetClient(directory, hedge=hedge) as client:
            client.warm(stack, request)
            for _ in range(rounds):
                result = client.read(stack, request)
                assert result.ok
                assert result.hedged
                assert result.host == "fast"
                assert result.attempts == 2
            stats = client.stats()
        assert stats["reads"] == rounds
        assert stats["hedges"] == rounds
        assert stats["hedge_wins"] == rounds
        # Every race had exactly one loser, abandoned and counted.
        assert stats["losers_abandoned"] == rounds
        assert stats["failovers"] == 0
        assert stats["errors"] == 0

    def test_unhedged_primary_win_carries_no_hedge_stamp(self, pair):
        _, directory = pair
        stack = next(
            s for s in range(64)
            if directory.replicas_for_stack(s)[0].name == "fast"
        )
        request = ReadRequest.point(2, 51.0)
        with FleetClient(directory, hedge=HedgePolicy(enabled=False)) as client:
            client.warm(stack, request)
            result = client.read(stack, request)
            stats = client.stats()
        assert result.ok and not result.hedged
        assert result.host == "fast"
        assert result.attempts == 1
        assert stats["hedges"] == 0
        assert stats["losers_abandoned"] == 0


# ------------------------------------------------------------ dead primary


class TestFailover:
    def test_killed_primary_fails_over_with_zero_errors(self):
        servers = []
        specs = []
        try:
            for index in range(2):
                config = EdgeConfig(
                    port=0, shards=1, tiers=2, root_seed=ROOT_SEED,
                    start_method="fork",
                )
                server = EdgeServerThread(config).start()
                servers.append(server)
                specs.append(
                    HostSpec(
                        name=f"h{index}", host=server.host,
                        port=server.port, domain=f"d{index}",
                    )
                )
            directory = FleetDirectory(
                hosts=tuple(specs), shards=2, replication=2
            )
            stack = 3
            primary = directory.replicas_for_stack(stack)[0].name
            victim = next(
                i for i, spec in enumerate(specs) if spec.name == primary
            )
            survivor = specs[1 - victim].name
            request = ReadRequest.point(0, 33.0)
            with FleetClient(
                directory,
                hedge=HedgePolicy(enabled=False),
                retry=RetryPolicy(attempts=2, backoff_s=0.01),
            ) as client:
                client.warm(stack, request)
                servers[victim].stop(drain=False)
                result = client.read(stack, request)
                stats = client.stats()
            assert result.ok
            assert result.host == survivor
            assert stats["failovers"] >= 1
            assert stats["errors"] == 0
        finally:
            for server in servers:
                server.stop(drain=False)


# ------------------------------------------------------------- SSE resume


def _sse_blocks(host, port, query, headers=b""):
    sock = socket.create_connection((host, port), timeout=30.0)
    try:
        sock.sendall(
            b"GET /v1/stream?" + query.encode("ascii") + b" HTTP/1.1\r\n"
            b"Host: t\r\nConnection: close\r\n" + headers + b"\r\n"
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    head, _, body = data.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    blocks = []
    for block in body.decode("utf-8").split("\n\n"):
        if not block.strip():
            continue
        lines = block.split("\n")
        record = json.loads(
            next(l for l in lines if l.startswith("data: "))[len("data: "):]
        )
        ids = [l for l in lines if l.startswith("id: ")]
        record["_id"] = int(ids[0][len("id: "):]) if ids else None
        blocks.append(record)
    return blocks


class TestSseResume:
    def test_last_event_id_replays_the_disconnect_window(self, pair):
        _, directory = pair
        fast = directory.host("fast")
        # The hub skips publishing (and the replay ring) when nothing is
        # subscribed, so an anchor subscription stays open for the whole
        # test — it stands in for "other subscribers exist", which is
        # exactly the situation a resuming consumer is in.
        with EdgeClient(fast.host, fast.port) as anchor:
            receiver = anchor.subscribe(kinds=["read"])
            with EdgeClient(fast.host, fast.port) as client:
                for i in range(3):
                    assert client.read(11, ReadRequest.point(1, 40.0 + i)).ok
            first = _sse_blocks(
                fast.host, fast.port, "kinds=read&limit=2",
                headers=b"Last-Event-ID: 0\r\n",
            )
            reads = [b for b in first if b["event"] == "read"]
            assert len(reads) == 2
            resume_from = reads[-1]["_id"]
            # Publish more reads while "disconnected".
            with EdgeClient(fast.host, fast.port) as client:
                for i in range(3):
                    assert client.read(11, ReadRequest.point(1, 60.0 + i)).ok
            replayed = _sse_blocks(
                fast.host, fast.port, "kinds=read&limit=3",
                headers=b"Last-Event-ID: "
                + str(resume_from).encode() + b"\r\n",
            )
            receiver.unsubscribe()
        replayed = [b for b in replayed if b["event"] == "read"]
        assert len(replayed) == 3
        # The replay resumes exactly past the last delivered id, in
        # order, and every replayed record says so.
        assert all(block.get("replay") is True for block in replayed)
        ids = [block["_id"] for block in replayed]
        assert ids == sorted(ids)
        assert ids[0] > resume_from

    def test_resume_before_retention_gets_a_typed_gap_notice(self, pair):
        _, directory = pair
        fast = directory.host("fast")
        with EdgeClient(fast.host, fast.port) as anchor:
            receiver = anchor.subscribe(kinds=["read"])
            with EdgeClient(fast.host, fast.port) as client:
                assert client.read(12, ReadRequest.point(1, 45.0)).ok
            # An id before anything the ring retains: the server must
            # say "your history has a hole" with a typed notice, not
            # skip it silently.
            blocks = _sse_blocks(
                fast.host, fast.port, "kinds=read&limit=1",
                headers=b"Last-Event-ID: -1\r\n",
            )
            receiver.unsubscribe()
        notice = blocks[0]
        assert notice["event"] == "notice"
        assert notice["code"] == "gap"
        assert notice["resume"] == -1
        assert any(block["event"] == "read" for block in blocks[1:])

    def test_hub_replay_ring_reports_overflow_as_gap(self):
        hub = StreamHub(replay=4)
        # Publishing is a no-op (and skips the ring) with no listeners.
        hub.subscribe(kinds=["metric"], queue=4)
        for i in range(10):
            hub.publish("metric", {"name": "m", "value": float(i)})
        events, gap = hub.replay_since(2)
        assert gap  # events 3..5 fell off the 4-deep ring
        assert [e.seq for e in events] == [7, 8, 9, 10]
        fresh, gap = hub.replay_since(6)
        assert not gap
        assert [e.seq for e in fresh] == [7, 8, 9, 10]


# --------------------------------------------------------- /metrics labels


class TestMetricsShardStateLabels:
    def test_per_state_breakdown_with_stable_label_set(self, pair):
        _, directory = pair
        fast = directory.host("fast")
        with urllib.request.urlopen(
            f"http://{fast.host}:{fast.port}/metrics", timeout=30.0
        ) as response:
            text = response.read().decode("utf-8")
        lines = text.splitlines()
        assert 'repro_edge_shards{state="healthy"} 1' in lines
        # Every lifecycle state is present (zeroes included) so scrapers
        # see a stable label set.
        for state in ("warm", "starting", "quarantined", "draining", "stopped"):
            assert f'repro_edge_shards{{state="{state}"}} 0' in lines

