"""Elastic scaling: live reshard, admin plane, autoscaler, warm spares.

Four layers of coverage:

* pure units — ring generations, remap-fraction measurement, the
  autoscaler decision function against a fake pool and injected clock;
* pool-level process tests — warm-spare promotion, drain-before-
  teardown, the respawn-vs-reshard races (a worker respawned
  mid-reshard rejoins the *current* topology; a shard removed while
  quarantined stays gone);
* one live server — ``admin.*`` round-trips over all three wires, the
  token gate, and rolling restarts that keep answers bit-identical;
* the chaos reshard — grow/shrink 2→4→3 under sustained client traffic
  with zero dropped non-retryable requests and bit-identical answers
  for every key whose shard did not move.
"""

import threading
import time

import pytest

from repro.edge import (
    AdminClient,
    AutoscalePolicy,
    Autoscaler,
    EdgeClient,
    EdgeConfig,
    EdgeDeployment,
    EdgeError,
    EdgeServerThread,
    HashRing,
    RetryPolicy,
    ShardPool,
    remapped_fraction,
)
from repro.edge import protocol
from repro.edge.supervisor import ShardState
from repro.serve import ReadRequest

TIERS = 4
ROOT_SEED = 2012


def make_pool(shards=2, enable_chaos=False, warm_spares=0, respawn_backoff_s=0.05):
    deployment = EdgeDeployment(
        shards=shards,
        tiers=TIERS,
        root_seed=ROOT_SEED,
        start_method="fork",
        enable_chaos=enable_chaos,
        warm_spares=warm_spares,
        respawn_backoff_s=respawn_backoff_s,
    )
    return ShardPool(
        deployment.worker_configs(),
        window=32,
        start_method="fork",
        health_interval_s=0.2,
        respawn_backoff_s=respawn_backoff_s,
        config_factory=deployment.worker_config,
        warm_spares=warm_spares,
    )


def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ------------------------------------------------------------------ units


class TestRingGenerations:
    def test_successor_bumps_generation(self):
        ring = HashRing(range(2))
        assert ring.generation == 0
        grown = ring.successor(range(3))
        assert grown.generation == 1
        assert grown.successor(range(2)).generation == 2

    def test_remapped_fraction_zero_for_identical_topologies(self):
        assert remapped_fraction(HashRing(range(4)), HashRing(range(4))) == 0.0

    def test_grow_remap_fraction_near_consistent_hash_bound(self):
        """Grow N → N+1 moves ~1/(N+1) of the key space, never > 1.5x it."""
        for shards in (2, 3, 4):
            old = HashRing(range(shards))
            new = old.successor(range(shards + 1))
            fraction = remapped_fraction(old, new)
            assert 0.0 < fraction <= 1.5 / (shards + 1)

    def test_unmoved_keys_share_owner_across_rings(self):
        old = HashRing(range(2))
        new = old.successor(range(3))
        unmoved = [s for s in range(256) if old.route(s) == new.route(s)]
        assert len(unmoved) > 128  # most keys must not move
        for stack in unmoved:
            assert old.route(stack) == new.route(stack)


class _FakeInstrument:
    def __init__(self, value=0.0, p99=None):
        self.value = value
        self._p99 = p99

    def quantile(self, q):
        return self._p99


class _FakeRegistry:
    def __init__(self):
        self.instruments = {}

    def get(self, name):
        return self.instruments.get(name)


class _FakePool:
    def __init__(self, active=2, window=32):
        self.active_count = active
        self.window = window
        self.calls = []

    def scale_to(self, n):
        self.calls.append(n)
        self.active_count = n


class TestAutoscaler:
    def make(self, policy=None, active=2):
        pool = _FakePool(active=active)
        registry = _FakeRegistry()
        policy = policy or AutoscalePolicy(
            min_shards=1, max_shards=4, hysteresis=2, cooldown_s=10.0
        )
        clock_now = [0.0]
        scaler = Autoscaler(
            pool, policy, registry=registry, clock=lambda: clock_now[0]
        )
        return pool, registry, scaler, clock_now

    def set_signals(self, pool, registry, inflight, p99=None):
        registry.instruments["edge.inflight"] = _FakeInstrument(value=inflight)
        registry.instruments["edge.request_ms"] = _FakeInstrument(p99=p99)

    def test_hysteresis_delays_scale_up(self):
        pool, registry, scaler, _ = self.make()
        self.set_signals(pool, registry, inflight=pool.active_count * pool.window)
        assert scaler.step() is None  # hot tick 1 of 2
        assert scaler.step() == "up"
        assert pool.calls == [3]

    def test_one_cold_tick_resets_hot_streak(self):
        pool, registry, scaler, _ = self.make()
        self.set_signals(pool, registry, inflight=pool.active_count * pool.window)
        assert scaler.step() is None
        self.set_signals(pool, registry, inflight=0.0)
        scaler.step()
        self.set_signals(pool, registry, inflight=pool.active_count * pool.window)
        assert scaler.step() is None  # streak restarted; still damped
        assert pool.calls == []

    def test_cooldown_blocks_back_to_back_actions(self):
        pool, registry, scaler, clock_now = self.make()
        self.set_signals(pool, registry, inflight=pool.active_count * pool.window)
        scaler.step()
        assert scaler.step() == "up"
        for _ in range(5):
            assert scaler.step() is None  # in cooldown, and no longer hot
        clock_now[0] = 11.0  # past cooldown_s
        self.set_signals(pool, registry, inflight=pool.active_count * pool.window)
        assert scaler.step() is None  # hot tick 1 of 2 at the new capacity
        assert scaler.step() == "up"
        assert pool.calls == [3, 4]

    def test_p99_signal_scales_up_without_queue_depth(self):
        pool, registry, scaler, _ = self.make()
        self.set_signals(pool, registry, inflight=0.0, p99=400.0)
        scaler.step()
        assert scaler.step() == "up"

    def test_scale_down_when_cold_and_bounded_by_min(self):
        policy = AutoscalePolicy(
            min_shards=2, max_shards=4, hysteresis=1, cooldown_s=0.0
        )
        pool, registry, scaler, _ = self.make(policy=policy, active=3)
        self.set_signals(pool, registry, inflight=0.0)
        assert scaler.step() == "down"
        assert pool.active_count == 2
        assert scaler.step() is None  # at min_shards; never below
        assert pool.calls == [2]

    def test_max_shards_caps_growth(self):
        policy = AutoscalePolicy(
            min_shards=1, max_shards=2, hysteresis=1, cooldown_s=0.0
        )
        pool, registry, scaler, _ = self.make(policy=policy, active=2)
        self.set_signals(pool, registry, inflight=pool.active_count * pool.window)
        assert scaler.step() is None
        assert pool.calls == []

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_shards=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_down_utilisation=0.9, scale_up_utilisation=0.5)
        with pytest.raises(ValueError):
            AutoscalePolicy(hysteresis=0)


class TestDeprecatedConfigShims:
    def test_deployment_round_trips_edge_config(self):
        deployment = EdgeDeployment(shards=3, tiers=TIERS, warm_spares=1)
        assert EdgeDeployment.from_edge_config(deployment.edge_config()) == deployment

    def test_deployment_mints_configs_for_any_index(self):
        deployment = EdgeDeployment(shards=2, tiers=TIERS, root_seed=ROOT_SEED)
        boot = deployment.worker_configs()
        assert [w.shard_index for w in boot] == [0, 1]
        # An index beyond the boot set derives the same way a boot shard
        # would have — elastic scale-up is seed-identical by construction.
        later = deployment.worker_config(5)
        assert later.seed == EdgeDeployment(
            shards=6, tiers=TIERS, root_seed=ROOT_SEED
        ).worker_configs()[5].seed


# ------------------------------------------------------- pool-level process


class TestElasticPool:
    def test_scale_up_then_down_routes_and_drains(self):
        pool = make_pool(shards=2)
        pool.start(health_checks=False)
        try:
            assert pool.shard_indices == [0, 1]
            assert pool.generation == 0
            pool.scale_to(4)
            assert pool.shard_indices == [0, 1, 2, 3]
            assert pool.generation == 2  # one republish per added shard
            wire = protocol.request_to_wire(ReadRequest.point(0, 40.0))
            assert pool.submit_read(3, wire).result(timeout=30.0)["ok"]
            pool.scale_to(3)
            assert pool.shard_indices == [0, 1, 2]
            assert pool.generation == 3
        finally:
            pool.close()

    def test_gap_index_is_refilled_with_identical_seed(self):
        pool = make_pool(shards=3)
        pool.start(health_checks=False)
        try:
            seed_before = pool.shard_configs[1].seed
            pool.remove_shard(1)
            assert pool.shard_indices == [0, 2]
            added = pool.add_shard()
            assert added == 1
            assert pool.shard_configs[1].seed == seed_before
        finally:
            pool.close()

    def test_remove_last_shard_is_refused(self):
        pool = make_pool(shards=1)
        pool.start(health_checks=False)
        try:
            with pytest.raises(ValueError):
                pool.remove_shard(0)
        finally:
            pool.close()

    def test_warm_spare_promotes_without_cold_spawn(self):
        pool = make_pool(shards=2, warm_spares=1)
        pool.start(health_checks=False)
        try:
            assert pool.spare_indices == [2]
            spare_pid = pool._spares[2].process.pid
            added = pool.add_shard()
            assert added == 2
            # Ring-join, not cold spawn: the promoted worker *is* the spare.
            assert pool._shards[2].process.pid == spare_pid
            assert wait_until(lambda: pool.spare_indices == [3])
        finally:
            pool.close()

    def test_drain_completes_inflight_before_teardown(self):
        pool = make_pool(shards=2)
        pool.start(health_checks=False)
        try:
            # Pick a stack the departing shard owns and submit a burst.
            victim = pool.shard_indices[-1]
            stacks = [s for s in range(256) if pool.route(s) == victim][:16]
            wire = protocol.request_to_wire(ReadRequest.point(0, 30.0))
            futures = [pool.submit_read(s, dict(wire)) for s in stacks]
            pool.remove_shard(victim)
            # Every accepted read was served (drained), not dropped.
            for future in futures:
                assert future.result(timeout=30.0)["ok"]
        finally:
            pool.close()

    def test_rolling_restart_keeps_topology_and_answers(self):
        pool = make_pool(shards=2)
        pool.start(health_checks=False)
        try:
            wire = protocol.request_to_wire(ReadRequest.vt(1, 44.0))

            def physics(answer):
                # The die-physics payload only; latency and cache state
                # legitimately differ across a process recycle.
                return [
                    (r["tier"], r["temperature_c"], r["dvtn"], r["dvtp"])
                    for r in answer["result"]["readings"]
                ]

            before = {
                s: pool.submit_read(s, dict(wire)).result(timeout=30.0)
                for s in range(8)
            }
            generation = pool.generation
            pids = {e["shard"]: e["pid"] for e in pool.health()}
            restarted = pool.rolling_restart()
            assert restarted == [0, 1]
            assert pool.generation == generation  # slots kept; no remap
            assert {e["shard"]: e["pid"] for e in pool.health()} != pids
            for s in range(8):
                after = pool.submit_read(s, dict(wire)).result(timeout=30.0)
                assert physics(after) == physics(before[s])
        finally:
            pool.close()


class TestRespawnVersusReshard:
    """The satellite-3 regression: respawn must read the live topology."""

    def test_respawn_mid_reshard_rejoins_current_generation(self):
        pool = make_pool(shards=2, enable_chaos=True, respawn_backoff_s=0.4)
        pool.start(health_checks=True)
        try:
            pool.chaos(0, "exit")
            assert wait_until(
                lambda: pool.health()[0]["state"]
                in ("quarantined", "starting", "healthy")
            )
            # Reshard while shard 0's respawn backoff is still pending.
            pool.add_shard()
            assert pool.generation == 1
            assert wait_until(
                lambda: pool.health()[0]["state"] == "healthy", timeout=30.0
            )
            entry = pool.health()[0]
            # The respawn stamped the *current* ring generation, not the
            # boot-time topology it died under.
            assert entry["generation"] == pool.generation == 1
            wire = protocol.request_to_wire(ReadRequest.point(0, 35.0))
            for stack in range(8):
                future = pool.submit_read(stack, dict(wire))
                assert future.result(timeout=30.0)["ok"]
        finally:
            pool.close()

    def test_shard_removed_while_quarantined_stays_gone(self):
        pool = make_pool(shards=2, enable_chaos=True, respawn_backoff_s=1.0)
        pool.start(health_checks=True)
        try:
            pool.chaos(1, "exit")
            assert wait_until(
                lambda: any(
                    e["shard"] == 1 and e["state"] == "quarantined"
                    for e in pool.health()
                )
            )
            pool.remove_shard(1)
            assert pool.shard_indices == [0]
            time.sleep(1.6)  # past the pending respawn backoff
            assert pool.shard_indices == [0]
            assert all(e["shard"] != 1 for e in pool.health())
        finally:
            pool.close()


# ------------------------------------------------------------- live server


@pytest.fixture(scope="module")
def edge():
    config = EdgeConfig(
        shards=2,
        tiers=TIERS,
        root_seed=ROOT_SEED,
        start_method="fork",
        admin_token="s3cret",
        window=32,
    )
    with EdgeServerThread(config) as server:
        yield server


class TestAdminPlane:
    @pytest.mark.parametrize("wire", ["ndjson", "binary", "http"])
    def test_status_round_trips_every_wire(self, edge, wire):
        with AdminClient(edge.host, edge.port, token="s3cret", wire=wire) as admin:
            status = admin.status()["status"]
        assert status["shards"] == edge.server.pool.shard_indices
        assert status["generation"] == edge.server.pool.generation
        assert {e["shard"] for e in status["health"]} == set(status["shards"])
        assert status["autoscaler"] is None  # no policy on this deployment

    @pytest.mark.parametrize("wire", ["ndjson", "binary", "http"])
    def test_wrong_token_answers_typed_invalid(self, edge, wire):
        with AdminClient(edge.host, edge.port, token="nope", wire=wire) as admin:
            with pytest.raises(EdgeError) as info:
                admin.status()
        assert info.value.code == protocol.INVALID
        assert not info.value.retryable

    def test_missing_token_is_refused(self, edge):
        with AdminClient(edge.host, edge.port, wire="ndjson") as admin:
            with pytest.raises(EdgeError) as info:
                admin.scale(3)
        assert info.value.code == protocol.INVALID

    def test_bad_arguments_answer_invalid(self, edge):
        with AdminClient(edge.host, edge.port, token="s3cret") as admin:
            with pytest.raises(EdgeError) as info:
                admin.scale(0)
            assert info.value.code == protocol.INVALID
            with pytest.raises(EdgeError) as info:
                admin.drain_shard(99)
            assert info.value.code == protocol.INVALID

    def test_unknown_admin_http_route_is_unknown_op(self, edge):
        from http.client import HTTPConnection

        connection = HTTPConnection(edge.host, edge.port, timeout=30.0)
        try:
            connection.request(
                "POST", "/v1/admin/explode", body=b"{}",
                headers={"X-Admin-Token": "s3cret"},
            )
            response = connection.getresponse()
            assert response.status == 404
            payload = protocol.decode_line(response.read())
            assert payload["error"]["code"] == protocol.UNKNOWN_OP
        finally:
            connection.close()

    def test_scale_and_restart_round_trip(self, edge):
        with AdminClient(edge.host, edge.port, token="s3cret") as admin:
            grown = admin.scale(3)
            assert grown["shards"] == [0, 1, 2]
            restarted = admin.restart(shard=2)
            assert restarted["restarted"] == [2]
            shrunk = admin.scale(2)
            assert shrunk["shards"] == [0, 1]
        with EdgeClient(edge.host, edge.port) as client:
            assert client.read(3, ReadRequest.point(0, 41.0)).ok


# ----------------------------------------------------------- chaos reshard


class TestChaosReshard:
    """Grow 2→4→3 under sustained traffic; nothing non-retryable drops."""

    STACKS = 24

    def test_reshard_under_sustained_traffic(self):
        config = EdgeConfig(
            shards=2,
            tiers=TIERS,
            root_seed=ROOT_SEED,
            start_method="fork",
            window=32,
        )
        answers = {}  # stack -> set of (tier, temp, dvtn, dvtp) tuples seen
        answers_lock = threading.Lock()
        non_retryable = []
        stop = threading.Event()

        def record(stack, result):
            key = tuple(
                (r.tier, r.temperature_c, r.dvtn, r.dvtp) for r in result.readings
            )
            with answers_lock:
                answers.setdefault(stack, set()).add(key)

        def traffic(worker_id, host, port):
            retry = RetryPolicy(attempts=10, backoff_s=0.02, max_backoff_s=0.25)
            with EdgeClient(host, port, retry=retry) as client:
                stack = worker_id
                while not stop.is_set():
                    request = ReadRequest.vt(stack % TIERS, 40.0 + stack % TIERS)
                    try:
                        result = client.read(stack, request)
                    except EdgeError as error:
                        if not error.retryable:
                            non_retryable.append((stack, error))
                    else:
                        record(stack, result)
                    stack = (stack + 3) % self.STACKS

        with EdgeServerThread(config) as edge:
            pool = edge.server.pool
            ring_start = pool.ring
            with EdgeClient(edge.host, edge.port) as client:
                for stack in range(self.STACKS):
                    record(stack, client.read(stack, ReadRequest.vt(
                        stack % TIERS, 40.0 + stack % TIERS
                    )))
            threads = [
                threading.Thread(target=traffic, args=(i, edge.host, edge.port))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            try:
                pool.scale_to(4)
                time.sleep(0.5)
                pool.scale_to(3)
                time.sleep(0.5)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert pool.shard_indices == [0, 1, 2]
            assert pool.ring.generation == 3
            # Zero dropped non-retryable requests across the reshards.
            assert non_retryable == []
            # Keys whose owner never moved in ANY published topology
            # (2 → 3 → 4 → 3 shards) answered bit-identically all along;
            # a moved key may legitimately see two die stacks.  The
            # successor chain below reconstructs every intermediate ring
            # — ring construction is deterministic in the member set.
            ring3 = ring_start.successor([0, 1, 2])
            ring4 = ring3.successor([0, 1, 2, 3])
            unmoved = [
                s
                for s in range(self.STACKS)
                if ring_start.route(s) == ring3.route(s) == ring4.route(s)
            ]
            assert unmoved  # consistent hashing keeps most keys in place
            for stack in unmoved:
                assert len(answers[stack]) == 1, (
                    f"stack {stack} owner never moved but answers diverged"
                )
