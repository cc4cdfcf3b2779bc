"""Tests of the repro.serve subsystem: engine, cache, admission, service.

The load-bearing test is the golden equivalence class: a coalesced
mixed-kind batch must answer exactly what a sequential scalar-read loop
over the same requests would — same noise-stream consumption (counter
values bit-identical through the paired kernel) and bit-identical
estimates, because the scalar read is a one-lane call of the same
calibration algorithm (see tests/test_batch_engine.py).
"""

import threading

import numpy as np
import pytest

from repro import faults
from repro.batch.paired import read_paired
from repro.experiments.common import build_sensor, die_population
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchPolicy,
    QueueFullError,
    ReadEngine,
    ReadRequest,
    RequestKind,
    ResultCache,
    ResultStatus,
    SensorReadService,
    ServeConfig,
    ServiceClosedError,
)
from repro.units import celsius_to_kelvin


def fresh_stack(tiers=4):
    """tier -> PTSensor with fresh (identically seeded) noise streams."""
    dies = die_population(tiers)
    return {t: build_sensor(dies[t], die_id=t) for t in range(tiers)}


MIXED_BATCH = [
    ReadRequest.point(0, 55.3),
    ReadRequest.vt(2, 40.1),
    ReadRequest.scan(33.7, tiers=(1, 3)),
    ReadRequest.poll({0: 50.0, 1: 52.5, 2: 54.0, 3: 57.5}),
    ReadRequest.point(0, 55.3),  # same tier twice: stream order matters
    ReadRequest.point(1, 61.2, assume_vdd=1.2),
]


def expand_like_engine(engine, request):
    return engine._expand(request)


class TestRequestValidation:
    def test_point_requires_tier(self):
        with pytest.raises(ValueError, match="requires a tier"):
            ReadRequest(kind=RequestKind.POINT_READ, temp_c=25.0)

    def test_kind_specific_fields_rejected(self):
        with pytest.raises(ValueError, match="TIER_SCAN"):
            ReadRequest.point(0, 25.0).__class__(
                kind=RequestKind.POINT_READ, tier=0, tiers=(1,)
            )
        with pytest.raises(ValueError, match="STACK_POLL"):
            ReadRequest(kind=RequestKind.TIER_SCAN, temps_c={0: 25.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_temperatures_and_supplies_rejected(self, value):
        with pytest.raises(ValueError, match="temp_c must be finite"):
            ReadRequest.point(0, value)
        with pytest.raises(ValueError, match="vdd must be finite"):
            ReadRequest.point(0, 25.0, vdd=value)
        with pytest.raises(ValueError, match="assume_vdd must be finite"):
            ReadRequest.point(0, 25.0, assume_vdd=value)
        with pytest.raises(ValueError, match="temps_c entries must be finite"):
            ReadRequest.poll({0: 25.0, 1: value})

    def test_constructors_set_kinds(self):
        assert ReadRequest.point(0, 25.0).kind is RequestKind.POINT_READ
        assert ReadRequest.vt(0, 25.0).kind is RequestKind.VT_EXTRACT
        assert ReadRequest.scan(25.0).kind is RequestKind.TIER_SCAN
        assert ReadRequest.poll({0: 25.0}).kind is RequestKind.STACK_POLL


class TestGoldenEquivalence:
    """Coalesced serving == sequential scalar serving, noise included."""

    def expected_units(self, engine):
        units = []
        for request in MIXED_BATCH:
            for tier, temp_c in expand_like_engine(engine, request):
                units.append((request, tier, temp_c))
        return units

    def assert_matches_sequential_scalar_reads(self, deterministic):
        engine = ReadEngine(fresh_stack(), cache=None, deterministic=deterministic)
        results = engine.execute(MIXED_BATCH, now=0.0)
        scalar_sensors = fresh_stack()

        flat = [r for result in results for r in result.readings]
        units = self.expected_units(engine)
        assert len(flat) == len(units)
        for reading, (request, tier, temp_c) in zip(flat, units):
            scalar = scalar_sensors[tier].read(
                temp_c,
                vdd=request.vdd,
                deterministic=deterministic,
                assume_vdd=request.assume_vdd,
            )
            assert reading.tier == tier
            assert reading.converged == scalar.converged
            # One calibration algorithm on both paths: the same counts
            # give the same bits.
            assert reading.temperature_c == scalar.temperature_c
            assert reading.dvtn == scalar.dvtn
            assert reading.dvtp == scalar.dvtp
            assert reading.conversion_time == pytest.approx(
                scalar.conversion_time, rel=1e-9
            )
            assert reading.energy_j == pytest.approx(scalar.energy.total, rel=1e-9)

    def test_mixed_batch_matches_sequential_scalar_reads(self):
        self.assert_matches_sequential_scalar_reads(deterministic=False)

    def test_deterministic_mixed_batch_matches_scalar_reads(self):
        self.assert_matches_sequential_scalar_reads(deterministic=True)

    def test_counter_values_bit_identical_through_paired_kernel(self):
        engine = ReadEngine(fresh_stack(), cache=None, deterministic=False)
        units = self.expected_units(engine)
        batch_sensors = fresh_stack()
        paired = read_paired(
            [batch_sensors[tier] for _, tier, _ in units],
            np.array([celsius_to_kelvin(t) for _, _, t in units]),
        )
        scalar_sensors = fresh_stack()
        for i, (request, tier, temp_c) in enumerate(units):
            scalar = scalar_sensors[tier].read(temp_c, vdd=request.vdd)
            assert int(paired.counts_n[i]) == scalar.counts_n
            assert int(paired.counts_p[i]) == scalar.counts_p
            assert int(paired.counts_ref[i]) == scalar.counts_ref

    def test_deterministic_mode_is_reproducible(self):
        a = ReadEngine(fresh_stack(), deterministic=True).execute(MIXED_BATCH)
        b = ReadEngine(fresh_stack(), deterministic=True).execute(MIXED_BATCH)
        for ra, rb in zip(a, b):
            for x, y in zip(ra.readings, rb.readings):
                assert x.temperature_c == y.temperature_c
                assert x.dvtn == y.dvtn


class TestResultCache:
    def test_hit_after_put_and_quantised_sharing(self):
        cache = ResultCache(capacity=8, ttl_s=10.0, temp_resolution_c=0.25)
        engine = ReadEngine(fresh_stack(), cache=cache)
        first = engine.execute([ReadRequest.point(0, 55.05)], now=0.0)
        # 55.05 and 55.10 quantise to the same 0.25 degC bucket.
        second = engine.execute([ReadRequest.point(0, 55.10)], now=1.0)
        assert first[0].cache_hits == 0
        assert second[0].cache_hits == 1
        assert second[0].readings[0].cache_hit
        assert (
            second[0].readings[0].temperature_c
            == first[0].readings[0].temperature_c
        )
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert 0.0 < stats.hit_rate < 1.0

    def test_ttl_expiry_forces_reconversion(self):
        cache = ResultCache(capacity=8, ttl_s=2.0)
        engine = ReadEngine(fresh_stack(), cache=cache)
        engine.execute([ReadRequest.point(0, 40.0)], now=0.0)
        hit = engine.execute([ReadRequest.point(0, 40.0)], now=1.0)
        expired = engine.execute([ReadRequest.point(0, 40.0)], now=5.0)
        assert hit[0].cache_hits == 1
        assert expired[0].cache_hits == 0
        assert cache.stats().expirations == 1

    def test_lru_eviction_at_capacity(self):
        cache = ResultCache(capacity=2, ttl_s=100.0)
        engine = ReadEngine(fresh_stack(), cache=cache)
        for temp in (30.0, 40.0, 50.0):  # third insert evicts 30.0
            engine.execute([ReadRequest.point(0, temp)], now=0.0)
        assert cache.stats().evictions == 1
        again = engine.execute([ReadRequest.point(0, 30.0)], now=0.0)
        assert again[0].cache_hits == 0

    def test_noisy_mode_bypasses_cache(self):
        cache = ResultCache(capacity=8)
        engine = ReadEngine(fresh_stack(), cache=cache, deterministic=False)
        engine.execute([ReadRequest.point(0, 40.0)], now=0.0)
        engine.execute([ReadRequest.point(0, 40.0)], now=0.0)
        assert cache.stats().hits == 0
        assert cache.stats().entries == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_s=0.0)


class TestAdmission:
    def test_rejects_at_capacity(self):
        controller = AdmissionController(AdmissionPolicy(queue_depth=2))
        controller.admit(0)
        controller.admit(1)
        with pytest.raises(QueueFullError):
            controller.admit(2)
        stats = controller.stats()
        assert (stats.admitted, stats.rejected) == (2, 1)

    def test_backpressure_signal(self):
        controller = AdmissionController(AdmissionPolicy(queue_depth=4))
        assert controller.backpressure(0) == 0.0
        assert controller.backpressure(2) == 0.5
        assert controller.backpressure(99) == 1.0


class TestReadEngine:
    def test_unknown_tier_errors_without_poisoning_batch(self):
        engine = ReadEngine(fresh_stack())
        bad, good = engine.execute(
            [ReadRequest.point(99, 25.0), ReadRequest.point(0, 25.0)]
        )
        assert bad.status is ResultStatus.ERROR
        assert "unknown tier" in bad.error
        assert good.status is ResultStatus.OK

    @pytest.mark.parametrize("bad_c", [200.0, -80.0])
    def test_unconvertible_temperature_fails_only_its_own_request(self, bad_c):
        good = [ReadRequest.point(1, 40.0 + i) for i in range(9)]
        alone = ReadEngine(fresh_stack(), cache=None).execute(good)
        mixed = ReadEngine(fresh_stack(), cache=None).execute(
            good[:4] + [ReadRequest.point(1, bad_c)] + good[4:]
        )
        bad = mixed.pop(4)
        assert bad.status is ResultStatus.ERROR
        assert "TemperatureRangeError" in bad.error
        assert [r.status for r in mixed] == [ResultStatus.OK] * 9
        for mine, theirs in zip(mixed, alone):
            assert mine.readings == theirs.readings

    def test_refused_batch_keeps_the_noisy_streams_sequential(self):
        batch = [ReadRequest.point(1, 40.0 + i) for i in range(4)]
        batch.insert(2, ReadRequest.point(1, 200.0))
        mixed = ReadEngine(fresh_stack(), cache=None, deterministic=False)
        sequential = ReadEngine(fresh_stack(), cache=None, deterministic=False)
        coalesced = mixed.execute(batch)
        one_by_one = [sequential.execute([request])[0] for request in batch]
        assert [r.status for r in coalesced] == [r.status for r in one_by_one]
        for mine, theirs in zip(coalesced, one_by_one):
            assert mine.readings == theirs.readings
        follow_up = [ReadRequest.point(1, 50.0)]
        assert mixed.execute(follow_up)[0].readings == (
            sequential.execute(follow_up)[0].readings
        )

    def test_batch_that_converts_costs_one_kernel_call(self, monkeypatch):
        from repro.serve import engine as engine_module

        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return read_paired(*args, **kwargs)

        monkeypatch.setattr(engine_module, "read_paired", counted)
        results = ReadEngine(fresh_stack(), cache=None).execute(
            [ReadRequest.point(1, 40.0 + i) for i in range(9)]
        )
        assert calls == [9]
        assert all(r.status is ResultStatus.OK for r in results)

    def test_deadline_shedding(self):
        admission = AdmissionController()
        engine = ReadEngine(fresh_stack(), admission=admission)
        shed, live = engine.execute(
            [
                ReadRequest.point(0, 25.0, deadline_s=1.0),
                ReadRequest.point(0, 25.0, deadline_s=10.0),
            ],
            now=5.0,
        )
        assert shed.status is ResultStatus.SHED
        assert shed.readings == ()
        assert live.status is ResultStatus.OK
        assert admission.stats().shed == 1

    def test_mixed_design_rejected(self):
        sensors = fresh_stack(2)
        from repro.config import SensorConfig
        from repro.core.sensor import PTSensor

        sensors[2] = PTSensor(
            sensors[0].technology, config=SensorConfig(psro_stages=15)
        )
        with pytest.raises(ValueError, match="mixed"):
            ReadEngine(sensors)

    def test_batch_accounting(self):
        engine = ReadEngine(fresh_stack())
        engine.execute(MIXED_BATCH)
        engine.execute(MIXED_BATCH[:2])
        assert engine.batches == 2
        assert engine.batch_size_histogram() == {len(MIXED_BATCH): 1, 2: 1}


class TestFaultDegradation:
    def test_faulted_tier_degrades_and_bypasses_cache(self):
        plan = FaultPlan(
            name="drifting-tier-1",
            specs=(
                FaultSpec(
                    FaultKind.SENSOR_DRIFT, tier=1, onset_round=0, severity=2.0
                ),
            ),
        )
        cache = ResultCache(capacity=16)
        engine = ReadEngine(fresh_stack(), cache=cache)
        with faults.inject(plan):
            results = engine.execute(
                [ReadRequest.point(1, 40.0), ReadRequest.point(0, 40.0)]
            )
        faulted, healthy = results
        assert faulted.status is ResultStatus.DEGRADED
        assert faulted.readings[0].quality == "degraded"
        # Drift adds severity*(age+1) = 2 degC to the published reading.
        assert faulted.readings[0].temperature_c == pytest.approx(
            healthy_reading_at(40.0, tier=1) + 2.0, abs=1e-3
        )
        assert healthy.status is ResultStatus.OK
        # Only the healthy tier's reading was cached.
        assert cache.stats().entries == 1

    def test_clean_run_unaffected_after_plan_exits(self):
        engine = ReadEngine(fresh_stack())
        plan = FaultPlan(
            name="drift", specs=(FaultSpec(FaultKind.SENSOR_DRIFT, tier=0),)
        )
        with faults.inject(plan):
            engine.execute([ReadRequest.point(0, 40.0)])
        clean = engine.execute([ReadRequest.point(0, 40.0)])
        assert clean[0].status is ResultStatus.OK
        assert clean[0].readings[0].quality == "ok"


def healthy_reading_at(temp_c, tier):
    stack = fresh_stack()
    engine = ReadEngine(stack, cache=None)
    (result,) = engine.execute([ReadRequest.point(tier, temp_c)])
    return result.readings[0].temperature_c


class TestSensorReadService:
    def config(self, **overrides):
        base = dict(
            tiers=2, batch=BatchPolicy(max_batch=8, max_wait_ms=5.0)
        )
        base.update(overrides)
        return ServeConfig(**base)

    def test_service_coalesces_concurrent_submissions(self):
        with SensorReadService(config=self.config()) as service:
            futures = [
                service.submit(ReadRequest.point(i % 2, 40.0 + i))
                for i in range(8)
            ]
            results = [f.result(timeout=10.0) for f in futures]
        assert all(r.status is ResultStatus.OK for r in results)
        assert max(r.batch_size for r in results) > 1
        assert service.stats().served == 8

    def test_drain_serves_queued_requests(self):
        service = SensorReadService(config=self.config())
        futures = [
            service.submit(ReadRequest.point(0, 30.0 + i)) for i in range(4)
        ]
        service.close(drain=True)
        assert all(f.result(timeout=1.0).ok for f in futures)

    def test_no_drain_fails_pending_and_close_is_idempotent(self):
        # Huge wait bound: the worker holds the batch open long enough
        # for close(drain=False) to reliably observe a non-empty queue.
        service = SensorReadService(
            config=self.config(batch=BatchPolicy(max_batch=64, max_wait_ms=60_000.0))
        )
        futures = [
            service.submit(ReadRequest.point(0, 30.0 + i)) for i in range(4)
        ]
        service.close(drain=False)
        service.close(drain=False)
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=5.0).status)
            except ServiceClosedError:
                outcomes.append("closed")
        assert "closed" in outcomes

    def test_submit_after_close_raises(self):
        service = SensorReadService(config=self.config())
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(ReadRequest.point(0, 25.0))

    def test_access_log_written(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with SensorReadService(config=self.config(), access_log=path) as service:
            service.read(ReadRequest.point(0, 45.0))
            service.read(ReadRequest.scan(50.0))
        import json

        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert len(records) == 2
        assert {r["type"] for r in records} == {"access"}
        assert records[0]["kind"] == "point_read"
        assert records[1]["readings"] == 2

    def test_read_from_worker_threads(self):
        with SensorReadService(config=self.config()) as service:
            errors = []
            results = []

            def client(i):
                try:
                    results.append(
                        service.read(ReadRequest.point(i % 2, 35.0 + i))
                    )
                except Exception as error:  # pragma: no cover - defensive
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == 6
        assert all(r.ok for r in results)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(tiers=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(queue_depth=0)
