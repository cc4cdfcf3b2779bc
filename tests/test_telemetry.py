"""Tests for the unified telemetry layer and its instrumentation seams.

Covers the registry/span/sink primitives, the instrumented subsystems
(core conversions, TSV bus, stack monitor, thermal LU cache, batch
engine, experiment runner), the harmonised environment-style read
signatures, and the JSONL round trip through the summary tooling.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.batch import read_population
from repro.circuits.ring_oscillator import Environment
from repro.core.tracking import TrackingPolicy, TrackingSensor
from repro.experiments.common import build_sensor, die_population, reference_setup
from repro.network.aggregator import StackMonitor
from repro.telemetry import (
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    TelemetryError,
)
from repro.telemetry.registry import RESERVOIR_CAPACITY
from repro.telemetry.spans import NULL_SPAN
from repro.telemetry.summary import (
    TelemetryFileError,
    load_summary,
    load_summary_file,
    render_summary,
)
from repro.tsv.bus import TsvSensorBus
from repro.units import celsius_to_kelvin


class TestRegistry:
    def test_counter_counts_and_resets(self):
        registry = MetricsRegistry()
        counter = registry.counter("test.events", unit="events")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("test.events").inc(-1)

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("test.level")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_histogram_moments_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("test.rounds")
        for value in [1, 2, 3, 4]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 10.0
        assert histogram.mean == 2.5
        state = histogram.snapshot()
        assert state["min"] == 1.0 and state["max"] == 4.0

    def test_histogram_reservoir_stays_bounded(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("test.big")
        histogram.observe_many(range(10 * RESERVOIR_CAPACITY))
        assert histogram.count == 10 * RESERVOIR_CAPACITY
        assert len(histogram._reservoir) < RESERVOIR_CAPACITY
        # Quantiles stay sane after decimation.
        p50 = histogram.quantile(0.5)
        assert 0.3 * 10 * RESERVOIR_CAPACITY < p50 < 0.7 * 10 * RESERVOIR_CAPACITY

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("test.a") is registry.counter("test.a")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("test.a")
        with pytest.raises(TelemetryError):
            registry.gauge("test.a")

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("nodots", "Upper.case", "trailing.", ".leading", "a b.c"):
            with pytest.raises(TelemetryError):
                registry.counter(bad)

    def test_snapshot_records_are_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("test.a", unit="x").inc(2)
        registry.histogram("test.b").observe(1.0)
        records = registry.snapshot()
        assert [r["name"] for r in records] == ["test.a", "test.b"]
        for record in records:
            assert record["type"] == "metric"
            json.dumps(record)  # must not raise


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not telemetry.enabled()
        span = telemetry.span("test.op", a=1)
        assert span is NULL_SPAN
        with span as live:
            live.set(b=2)  # no-op, no error

    def test_span_records_duration_and_attrs(self):
        with telemetry.capture() as sink:
            with telemetry.span("test.op", a=1) as span:
                span.set(b=2)
        [record] = sink.spans_named("test.op")
        assert record["attrs"] == {"a": 1, "b": 2}
        assert record["duration_s"] >= 0.0
        assert record["parent"] is None

    def test_span_nesting_tracks_parent(self):
        with telemetry.capture() as sink:
            with telemetry.span("test.outer"):
                with telemetry.span("test.inner"):
                    pass
        [inner] = sink.spans_named("test.inner")
        assert inner["parent"] == "test.outer"

    def test_span_marks_exceptions(self):
        with telemetry.capture() as sink:
            with pytest.raises(RuntimeError):
                with telemetry.span("test.fails"):
                    raise RuntimeError("boom")
        [record] = sink.spans_named("test.fails")
        assert record["attrs"]["error"] == "RuntimeError"

    def test_capture_restores_previous_state(self):
        assert not telemetry.enabled()
        with telemetry.capture():
            assert telemetry.enabled()
        assert not telemetry.enabled()
        assert isinstance(telemetry.get().sink, (NullSink, type(telemetry.get().sink)))


class TestJsonlRoundTrip:
    def test_jsonl_sink_and_summary(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = JsonlSink(path)
        with telemetry.capture(sink=sink):
            with telemetry.span("test.op"):
                pass
            telemetry.counter("test.events").inc(3)
        sink.close()
        summary = load_summary_file(path)
        assert summary.spans["test.op"].count == 1
        assert summary.metrics["test.events"]["value"] == 3
        rendered = render_summary(summary)
        assert "test.op" in rendered and "test.events" in rendered

    def test_jsonl_sink_is_thread_safe(self, tmp_path):
        """Concurrent emitters must produce whole, parseable lines.

        The sink serialises *inside* its lock, so records written from
        many threads can neither interleave mid-line nor be snapshotted
        while another thread still owns them.
        """
        import json
        import threading

        path = str(tmp_path / "concurrent.jsonl")
        sink = JsonlSink(path)
        per_thread, threads = 200, 8

        def emitter(worker):
            for i in range(per_thread):
                sink.emit_metric({"worker": worker, "i": i, "type": "metric"})

        workers = [
            threading.Thread(target=emitter, args=(w,)) for w in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        sink.flush()
        sink.close()
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == per_thread * threads
        for worker in range(threads):
            seen = sorted(r["i"] for r in records if r["worker"] == worker)
            assert seen == list(range(per_thread))

    def test_malformed_line_raises(self):
        with pytest.raises(TelemetryFileError):
            load_summary(['{"type": "metric"', ""])

    def test_unknown_record_type_raises(self):
        with pytest.raises(TelemetryFileError):
            load_summary(['{"type": "mystery"}'])


class TestCoreInstrumentation:
    def test_conversion_emits_span_and_metrics(self):
        sensor = build_sensor(die_population(2)[0])
        with telemetry.capture() as sink:
            reading = sensor.read(55.0)
        [span] = sink.spans_named("core.conversion")
        assert span["attrs"]["rounds_used"] == reading.rounds_used
        assert span["attrs"]["converged"] == reading.converged
        assert span["attrs"]["energy_pj"] == pytest.approx(
            reading.energy.total * 1e12
        )
        assert telemetry.counter("core.conversions").value == 1
        rounds = telemetry.histogram("core.calibration_rounds")
        assert rounds.count == 1 and rounds.sum == reading.rounds_used

    def test_tracking_mode_counters(self):
        tracker = TrackingSensor(
            build_sensor(die_population(2)[1]),
            TrackingPolicy(recalibration_interval=100),
        )
        with telemetry.capture():
            tracker.read(40.0)  # power-on full
            tracker.read(41.0)
            tracker.read(42.0)
        assert telemetry.counter("core.tracking.full_reads").value == 1
        assert telemetry.counter("core.tracking.fast_reads").value == 2


class TestEnvironmentCallForms:
    """The harmonised environment-style read signature across paths."""

    def test_sensor_read_accepts_environment(self):
        die = die_population(4)[2]
        a = build_sensor(die)
        b = build_sensor(die)
        env = b.physical_environment(celsius_to_kelvin(61.0))
        direct = a.read(61.0, deterministic=True)
        via_env = b.read(env, deterministic=True)
        assert via_env.temperature_c == direct.temperature_c
        assert via_env.counts_n == direct.counts_n

    def test_sensor_read_rejects_vdd_alongside_environment(self):
        sensor = build_sensor()
        env = sensor.physical_environment(celsius_to_kelvin(50.0))
        with pytest.raises(ValueError):
            sensor.read(env, vdd=1.2)

    def test_tracking_read_accepts_environment(self):
        die = die_population(4)[3]
        a = TrackingSensor(build_sensor(die))
        b = TrackingSensor(build_sensor(die))
        env = build_sensor(die).physical_environment(celsius_to_kelvin(45.0))
        direct = a.read(45.0)
        via_env = b.read(env)
        assert via_env.temperature_c == direct.temperature_c
        assert via_env.mode == direct.mode == "full"

    def test_read_population_accepts_environment_sweep(self):
        setup = reference_setup()
        sensors_a = [build_sensor(die) for die in die_population(3)]
        sensors_b = [build_sensor(die) for die in die_population(3)]
        temps_c = [30.0, 60.0, 90.0]
        envs = [
            Environment(temp_k=celsius_to_kelvin(t), vdd=setup.technology.vdd)
            for t in temps_c
        ]
        direct = read_population(sensors_a, temps_c, deterministic=True)
        via_env = read_population(sensors_b, envs, deterministic=True)
        np.testing.assert_allclose(via_env.temperature_c, direct.temperature_c)
        np.testing.assert_array_equal(via_env.counts_n, direct.counts_n)

    def test_read_population_rejects_conflicting_vdd(self):
        sensors = [build_sensor(die) for die in die_population(2)]
        envs = [Environment(temp_k=330.0, vdd=1.2)]
        with pytest.raises(ValueError):
            read_population(sensors, envs, vdd=1.0)

    def test_read_population_rejects_process_carrying_environments(self):
        sensors = [build_sensor(die) for die in die_population(2)]
        envs = [Environment(temp_k=330.0, vdd=1.2, dvtn=0.01)]
        with pytest.raises(ValueError):
            read_population(sensors, envs)


class TestBatchInstrumentation:
    def test_population_conversions_counted(self):
        sensors = [build_sensor(die) for die in die_population(3)]
        with telemetry.capture() as sink:
            read_population(sensors, [30.0, 70.0], deterministic=True, repeats=2)
        assert telemetry.counter("batch.population_conversions").value == 3 * 2 * 2
        assert telemetry.counter("batch.read_population_calls").value == 1
        assert telemetry.histogram("batch.calibration_rounds").count == 12
        [span] = sink.spans_named("batch.read_population")
        assert span["attrs"]["conversions"] == 12


class _FaultInjectingBus(TsvSensorBus):
    """A clean bus that corrupts chosen tiers' frames exactly once."""

    def __init__(self, tiers, faulty_tiers):
        super().__init__(tiers=tiers)
        self._faulty = set(faulty_tiers)

    def collect(self, frames_by_tier, rng=None):
        corrupted = dict(frames_by_tier)
        for tier in sorted(self._faulty):
            if tier in corrupted:
                corrupted[tier] ^= 1  # break the parity bit
                self._faulty.discard(tier)
        return super().collect(corrupted, rng=rng)


def _stack_sensors(count, seed=77):
    from repro.core.sensor import PTSensor
    from repro.variation.montecarlo import sample_dies

    setup = reference_setup()
    dies = sample_dies(setup.technology, count, seed=seed)
    return {
        tier: PTSensor(
            setup.technology,
            config=setup.config,
            die=die,
            die_id=tier,
            sensing_model=setup.model,
            lut=setup.lut,
        )
        for tier, die in enumerate(dies)
    }


class TestMonitorInstrumentation:
    def test_injected_parity_faults_fully_accounted(self):
        """The acceptance scenario: 8 tiers, injected faults, exact books."""
        tiers = 8
        faulty = {1, 4, 6}
        sensors = _stack_sensors(tiers)
        monitor = StackMonitor(
            sensors, _FaultInjectingBus(tiers, faulty), retry_limit=2
        )
        temps = {t: 50.0 + t for t in range(tiers)}
        with telemetry.capture() as sink:
            snapshot = monitor.poll(temps)
        # Every tier reported despite the faults (one clean retry round).
        assert len(snapshot.temperatures_c) == tiers
        assert snapshot.retries_used == 1
        assert snapshot.parity_faults == len(faulty)
        # Counters match the injected fault count exactly.
        assert telemetry.counter("network.bus.parity_errors").value == len(faulty)
        assert telemetry.counter("network.monitor.retries").value == 1
        assert telemetry.counter("network.monitor.parity_misses").value == 0
        assert telemetry.counter("network.monitor.silent_misses").value == 0
        # Spans for every poll: one per conversion (8 + 3 retried), one per
        # bus attempt, one per round.
        assert len(sink.spans_named("core.conversion")) == tiers + len(faulty)
        assert len(sink.spans_named("network.bus_collect")) == 2
        [round_span] = sink.spans_named("network.poll_round")
        assert round_span["attrs"]["parity_faults"] == len(faulty)
        # Conversion spans are children of the polling round.
        assert all(
            span["parent"] == "network.poll_round"
            for span in sink.spans_named("core.conversion")
        )

    def test_exhausted_retries_count_as_parity_misses(self):
        tiers = 3

        class AlwaysCorrupting(TsvSensorBus):
            def collect(self, frames_by_tier, rng=None):
                corrupted = {t: w ^ 1 if t == 0 else w for t, w in frames_by_tier.items()}
                return super().collect(corrupted, rng=rng)

        monitor = StackMonitor(
            _stack_sensors(tiers), AlwaysCorrupting(tiers=tiers), retry_limit=1
        )
        with telemetry.capture():
            monitor.poll({t: 50.0 for t in range(tiers)})
        state = monitor.states[0]
        assert state.consecutive_misses == 1
        assert state.consecutive_parity_misses == 1
        assert state.consecutive_silent_misses == 0
        assert telemetry.counter("network.monitor.parity_misses").value == 1
        assert telemetry.counter("network.monitor.silent_misses").value == 0


class TestThermalMigration:
    def test_cache_stats_back_compat_reads_registry(self):
        from repro.thermal.solver import (
            clear_factorization_caches,
            factorization_cache_stats,
            steady_state,
        )
        from repro.thermal.grid import build_stack_grid
        from repro.thermal.power import uniform_power_map
        from repro.tsv.geometry import StackDescriptor, TierSpec

        stack = StackDescriptor(tiers=[TierSpec("t0")])
        nx = ny = 6
        grid = build_stack_grid(
            stack.thermal_layers(nx, ny), stack.die_width, stack.die_height,
            nx=nx, ny=ny,
        )
        power = {"t0.si": uniform_power_map(nx, ny, 0.5)}
        clear_factorization_caches()
        steady_state(grid, power)
        steady_state(grid, power)
        stats = factorization_cache_stats()
        assert stats["steady_misses"] == 1 and stats["steady_hits"] == 1
        # The same numbers live in the telemetry registry.
        assert telemetry.counter("thermal.lu_cache.steady.hits").value == 1
        assert telemetry.counter("thermal.lu_cache.steady.misses").value == 1
        clear_factorization_caches()


class TestRunnerInstrumentation:
    def test_run_experiment_entry_point(self):
        from repro.experiments.runner import run_experiment

        result = run_experiment("R-T2", fast=True)
        assert result.render()
        with pytest.raises(KeyError):
            run_experiment("R-XX")

    def test_run_all_emits_spans_and_gauge(self):
        from repro.experiments.runner import run_all

        with telemetry.capture() as sink:
            result = run_all(fast=True, only=["R-T2", "R-F1"], jobs=2)
        assert result.all_ok
        assert len(sink.spans_named("experiments.run")) == 2
        assert len(sink.spans_named("experiments.run_all")) == 1
        assert telemetry.gauge("experiments.jobs").value == 2
        assert telemetry.counter("experiments.runs").value == 2
        assert telemetry.counter("experiments.failures").value == 0


class TestCli:
    def test_report_with_telemetry_and_summary(self, tmp_path):
        from repro.__main__ import main

        report = str(tmp_path / "report.md")
        jsonl = str(tmp_path / "telemetry.jsonl")
        assert main([
            "report", "--fast", "--only", "R-T2",
            "--output", report, "--telemetry", jsonl,
        ]) == 0
        summary = load_summary_file(jsonl)
        # The metric snapshot covers the whole catalogue: at least six
        # names across the four instrumented subsystems of the acceptance
        # bar, regardless of which experiments ran.
        assert len(summary.metrics) >= 6
        assert {"core", "network", "thermal", "batch"} <= summary.subsystems
        assert main(["telemetry", "summary", jsonl]) == 0

    def test_summary_on_missing_file(self, tmp_path):
        from repro.__main__ import main

        assert main(["telemetry", "summary", str(tmp_path / "nope.jsonl")]) == 2

    def test_summary_on_malformed_file(self, tmp_path):
        from repro.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["telemetry", "summary", str(bad)]) == 1


class TestFrameNamingDeprecation:
    def test_new_names_do_not_warn(self):
        import warnings

        from repro.readout.interface import SensorFrame, decode_frame, encode_frame

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            frame = SensorFrame(die_id=2, dvtn=0.003, dvtp=0.001, temperature_c=42.0)
            decoded = decode_frame(encode_frame(frame))
            assert decoded.dvtn == pytest.approx(0.003, abs=1e-4)

    def test_mixing_old_and_new_rejected(self):
        from repro.readout.interface import SensorFrame

        with pytest.raises(TypeError):
            SensorFrame(die_id=1, dvtn=0.0, vtn_shift=0.0, dvtp=0.0,
                        temperature_c=20.0)
