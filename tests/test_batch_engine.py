"""Golden equivalence of the batch engine against the scalar model stack.

The frequency layers of ``repro.batch`` are array twins of the scalar
physics model: device currents and bank frequencies agree with it to
~1e-12 relative.  The calibration algorithm exists once, over lanes, and
the scalar entry points are one-lane calls of it, so its answers are
checked against the scalar physics model (frequency residuals at the
answer) and every path — ``PTSensor.read``, one-lane and many-lane
``read_paired`` and ``read_population`` — gives the same bits for the same
counts (same rng streams, same quantisation).
"""

import numpy as np
import pytest

from repro.batch import (
    BatchCalibration,
    EnvironmentGrid,
    bank_frequencies_batch,
    calibrate_batch,
    drain_current_batch,
    estimate_temperature_batch,
    extract_process_batch,
    process_frequencies_batch,
    read_paired,
    read_population,
    read_uncalibrated_population,
    series_stack_current_batch,
    stage_delays_batch,
    tsro_frequency_batch,
)
from repro.batch.bank import ring_kernel
from repro.baselines.uncalibrated import UncalibratedTsroSensor
from repro.circuits.inverter import (
    _CAPACITANCE_CACHE,
    BalancedStage,
    input_capacitance_cached,
    load_capacitance_cached,
)
from repro.circuits.ring_oscillator import Environment
from repro.core.calibration import SelfCalibrationEngine
from repro.core.decoupler import extract_process
from repro.core.drift import DriftAnchoredModel
from repro.core.errors import TemperatureRangeError
from repro.core.sensing_model import SensingModel
from repro.core.sensor import PTSensor
from repro.device.mosfet import MosfetParams
from repro.core.temperature import estimate_temperature, estimate_temperature_clamped
from repro.device.mosfet import drain_current
from repro.device.stack import series_stack_current
from repro.edge.sharding import shard_seed
from repro.experiments.exp_a1_ablation import NONZTC_STAGE_N, _NonZtcSensingModel
from repro.experiments.common import (
    build_sensor,
    die_population,
    population_sensors,
    reference_setup,
)
from repro.serve.service import build_stack_sensors
from repro.variation.aging import BtiAgingModel
from repro.units import ZERO_CELSIUS_IN_KELVIN, celsius_to_kelvin


@pytest.fixture(scope="module")
def setup():
    return reference_setup()


class TestEnvironmentGrid:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnvironmentGrid.of(temp_k=[300.0, -5.0], vdd=1.0)
        with pytest.raises(ValueError):
            EnvironmentGrid.of(temp_k=300.0, vdd=0.0)
        with pytest.raises(ValueError):
            EnvironmentGrid.of(temp_k=300.0, vdd=1.0, mun_scale=0.0)

    def test_rejects_incompatible_shapes(self):
        with pytest.raises(ValueError):
            EnvironmentGrid.of(temp_k=np.ones(3) * 300.0, vdd=np.ones(4))

    def test_product_shape_and_roundtrip(self):
        grid = EnvironmentGrid.product([250.0, 300.0, 350.0], [0.9, 1.0])
        assert grid.shape == (3, 2)
        assert grid.size == 6
        env = grid.environment_at((2, 1))
        assert env.temp_k == 350.0 and env.vdd == 1.0

    def test_for_dies_matches_scalar_environments(self):
        dies = die_population(4)
        sensor = build_sensor(dies[0])
        temps_k = np.array([250.0, 300.0, 390.0])
        grid = EnvironmentGrid.for_dies(dies, sensor.location, temps_k, 1.0)
        assert grid.shape == (4, 3)
        for i, die in enumerate(dies):
            scalar = build_sensor(die)
            for j, temp_k in enumerate(temps_k):
                env = scalar.physical_environment(float(temp_k), 1.0)
                batch_env = grid.environment_at((i, j))
                assert batch_env == env

    def test_from_environments_iterates_back(self):
        envs = [
            Environment(temp_k=300.0, vdd=1.0, dvtn=0.01),
            Environment(temp_k=350.0, vdd=0.9, dvtp=-0.02, mup_scale=1.1),
        ]
        grid = EnvironmentGrid.from_environments(envs)
        assert list(grid.environments()) == envs


class TestDeviceEquivalence:
    def test_drain_current_matches_scalar(self, setup):
        params = setup.technology.nmos
        vgs = np.linspace(0.2, 1.0, 7)
        temps = np.array([233.15, 300.0, 398.15]).reshape(-1, 1)
        batch = drain_current_batch(params, vgs, 0.5, temps)
        for i, temp_k in enumerate(temps[:, 0]):
            for j, v in enumerate(vgs):
                scalar = drain_current(params, float(v), 0.5, float(temp_k))
                np.testing.assert_allclose(batch[i, j], scalar, rtol=1e-12)

    def test_dvt_and_mu_scale_match_param_replacement(self, setup):
        params = setup.technology.nmos
        dvt, mu = 0.02, 1.07
        shifted = params.with_vt_shift(dvt).with_mobility_scale(mu)
        batch = drain_current_batch(params, 0.8, 0.5, 300.0, dvt=dvt, mu_scale=mu)
        scalar = drain_current(shifted, 0.8, 0.5, 300.0)
        np.testing.assert_allclose(batch, scalar, rtol=1e-9)

    def test_series_stack_matches_scalar(self, setup):
        params = setup.technology.pmos
        for count in (1, 2, 3):
            batch = series_stack_current_batch(
                params, count, np.array([0.7, 0.9]), 0.45, 320.0
            )
            for j, vgs in enumerate((0.7, 0.9)):
                scalar = series_stack_current(params, count, vgs, 0.45, 320.0)
                np.testing.assert_allclose(batch[j], scalar, rtol=1e-9)


class TestCircuitEquivalence:
    def test_stage_delays_match_scalar(self, setup):
        tech = setup.technology
        bank = setup.model.bank
        grid = EnvironmentGrid.product([250.0, 300.0, 390.0], [0.95, 1.0])
        for osc in (bank.psro_n, bank.psro_p, bank.tsro, bank.reference):
            stage = osc.stage
            load = load_capacitance_cached(stage, tech)
            rise, fall = stage_delays_batch(
                stage, tech.nmos, tech.pmos, grid, grid.dvtn, grid.dvtp, load
            )
            for index in np.ndindex(grid.shape):
                env = grid.environment_at(index)
                s_rise, s_fall = stage.delays(
                    tech.nmos, tech.pmos, env.vdd, env.temp_k, load
                )
                np.testing.assert_allclose(rise[index], s_rise, rtol=1e-12)
                np.testing.assert_allclose(fall[index], s_fall, rtol=1e-12)

    def test_unregistered_stage_type_raises(self, setup):
        class MysteryStage(BalancedStage):
            pass

        tech = setup.technology
        grid = EnvironmentGrid.of(temp_k=300.0, vdd=1.0)
        with pytest.raises(TypeError):
            stage_delays_batch(
                MysteryStage(), tech.nmos, tech.pmos, grid, 0.0, 0.0, 1e-15
            )

    def test_bank_frequencies_match_scalar(self, setup):
        dies = die_population(3)
        sensors = [build_sensor(die) for die in dies]
        bank = sensors[0].bank
        temps_k = np.array([260.0, 330.0])
        grid = EnvironmentGrid.for_dies(
            dies[:1], sensors[0].location, temps_k, setup.technology.vdd
        )
        batch = bank_frequencies_batch(bank, grid)
        assert batch.shape == (1, 2)
        for j, temp_k in enumerate(temps_k):
            env = sensors[0].physical_environment(float(temp_k))
            scalar = bank.frequencies(env)
            point = batch.at((0, j))
            np.testing.assert_allclose(point.psro_n, scalar.psro_n, rtol=1e-12)
            np.testing.assert_allclose(point.psro_p, scalar.psro_p, rtol=1e-12)
            np.testing.assert_allclose(point.tsro, scalar.tsro, rtol=1e-12)
            np.testing.assert_allclose(point.reference, scalar.reference, rtol=1e-12)


class TestModelEquivalence:
    """The one calibration algorithm, checked against the scalar physics
    model, and its scalar entry points as one-lane calls of it."""

    def test_extraction_matches_scalar(self, setup):
        temp_k = celsius_to_kelvin(40.0)
        shifts = [(0.0, 0.0), (0.02, -0.015), (-0.025, 0.01), (0.03, 0.03)]
        f_n, f_p = process_frequencies_batch(
            setup.model,
            np.array([s[0] for s in shifts]),
            np.array([s[1] for s in shifts]),
            temp_k,
        )
        dvtn, dvtp = extract_process_batch(
            setup.model, f_n, f_p, temp_k, lut=setup.lut
        )
        for k, (true_n, true_p) in enumerate(shifts):
            # The scalar physics model reproduces the measured frequencies
            # at the answer to within Newton's 1 Hz exit residual.
            s_f_n, s_f_p = setup.model.process_frequencies(
                float(dvtn[k]), float(dvtp[k]), temp_k
            )
            assert abs(s_f_n - f_n[k]) < 1.0
            assert abs(s_f_p - f_p[k]) < 1.0
            assert abs(dvtn[k] - true_n) < 1e-4
            assert abs(dvtp[k] - true_p) < 1e-4
            one_lane = extract_process(
                setup.model, float(f_n[k]), float(f_p[k]), temp_k, lut=setup.lut
            )
            assert one_lane == (dvtn[k], dvtp[k])

    def test_temperature_inversion_matches_scalar(self, setup):
        temps_k = np.array([-30.0, 25.0, 110.0]) + ZERO_CELSIUS_IN_KELVIN
        f_t = np.array(
            [setup.model.tsro_frequency(0.01, -0.01, float(t)) for t in temps_k]
        )
        batch = estimate_temperature_batch(setup.model, f_t, 0.01, -0.01)
        for k, f in enumerate(f_t):
            # ~2 %/K TSRO slope: a 1e-9 relative residual is ~5e-8 K.
            model_f = setup.model.tsro_frequency(0.01, -0.01, float(batch[k]))
            assert abs(model_f / f - 1.0) < 1e-9
            assert abs(batch[k] - temps_k[k]) < 1e-6
            assert estimate_temperature(setup.model, float(f), 0.01, -0.01) == batch[k]

    def test_temperature_clamping_matches_scalar(self, setup):
        cold_f = setup.model.tsro_frequency(
            0.0, 0.0, celsius_to_kelvin(setup.config.temp_min_c) - 40.0
        )
        with pytest.raises(TemperatureRangeError):
            estimate_temperature_batch(setup.model, cold_f, 0.0, 0.0)
        clamped = estimate_temperature_batch(
            setup.model, np.array([cold_f]), 0.0, 0.0, clamp=True
        )
        scalar = estimate_temperature_clamped(setup.model, cold_f, 0.0, 0.0)
        assert clamped[0] == scalar

    def test_calibration_matches_per_point(self, setup):
        temp_k = np.array([0.0, 85.0]) + ZERO_CELSIUS_IN_KELVIN
        dvtn = np.array([0.02, -0.02])
        f_n, f_p = process_frequencies_batch(setup.model, dvtn, 0.01, temp_k)
        f_t = np.array(
            [
                setup.model.tsro_frequency(float(dvtn[k]), 0.01, float(temp_k[k]))
                for k in range(2)
            ]
        )
        result = calibrate_batch(setup.model, f_n, f_p, f_t, lut=setup.lut)
        assert isinstance(result, BatchCalibration)
        assert result.converged.all()
        np.testing.assert_allclose(result.dvtn, dvtn, atol=1e-4)
        np.testing.assert_allclose(result.temp_k, temp_k, atol=0.05)
        # a lane's answer does not depend on the lanes beside it
        single = calibrate_batch(
            setup.model,
            f_n[1:],
            f_p[1:],
            f_t[1:],
            lut=setup.lut,
        )
        np.testing.assert_array_equal(single.dvtn, result.dvtn[1:])
        np.testing.assert_array_equal(single.temp_k, result.temp_k[1:])
        np.testing.assert_array_equal(single.rounds_used, result.rounds_used[1:])


# (shard, tier, degC) keys of the default edge (root seed 2012) whose
# round loop ends a hair from the 0.05 K convergence step, where two
# inversions with different stopping rules end it after different rounds.
DIVERGENT_EDGE_KEYS = [(0, 0, 74.25), (0, 3, 93.0), (1, 0, -8.25), (1, 6, 89.75)]
READING_FIELDS = ("temperature_c", "dvtn", "dvtp", "rounds_used", "converged")


class TestOneAlgorithm:
    """Every conversion path runs the same calibration algorithm."""

    @pytest.fixture(scope="class")
    def edge_stacks(self):
        return {s: build_stack_sensors(8, shard_seed(2012, s)) for s in (0, 1)}

    @pytest.mark.parametrize("shard, tier, temp_c", DIVERGENT_EDGE_KEYS)
    def test_divergent_edge_keys_read_alike_on_both_paths(
        self, edge_stacks, shard, tier, temp_c
    ):
        sensor = edge_stacks[shard][tier]
        scalar = sensor.read(temp_c, deterministic=True)
        one_lane = read_paired(
            [sensor], np.array([celsius_to_kelvin(temp_c)]), deterministic=True
        )
        for field in READING_FIELDS:
            assert getattr(one_lane, field)[0] == getattr(scalar, field)

    def test_many_lanes_read_like_one(self, edge_stacks):
        sensors = [edge_stacks[shard][tier] for shard, tier, _ in DIVERGENT_EDGE_KEYS]
        temps_k = np.array([celsius_to_kelvin(t) for _, _, t in DIVERGENT_EDGE_KEYS])
        many = read_paired(sensors, temps_k, deterministic=True)
        for i, sensor in enumerate(sensors):
            one = read_paired([sensor], temps_k[i : i + 1], deterministic=True)
            for field in READING_FIELDS:
                assert getattr(many, field)[i] == getattr(one, field)[0]


class TestCompiledDesigns:
    """Each ring design compiles once: a warm self-calibration builds no
    devices and validates no grids, and still rejects bad outside input
    with the grid's own words."""

    @staticmethod
    def _counting(monkeypatch, cls):
        calls = []
        original = cls.__post_init__

        def counted(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        return calls

    def test_warm_calibration_builds_no_devices_or_grids(self, setup, monkeypatch):
        model = SensingModel(setup.technology, setup.config)
        temp_k = celsius_to_kelvin(70.0)
        f_n, f_p = model.process_frequencies(0.012, -0.02, temp_k)
        f_t = model.tsro_frequency(0.012, -0.02, temp_k)
        devices = self._counting(monkeypatch, MosfetParams)
        grids = self._counting(monkeypatch, EnvironmentGrid)

        cold = calibrate_batch(model, f_n, f_p, f_t, lut=setup.lut)
        assert devices, "the first call compiles the model's rings"
        devices.clear()
        grids.clear()
        warm = calibrate_batch(model, f_n, f_p, f_t, lut=setup.lut)
        assert not devices
        assert not grids
        assert warm.temp_k == cold.temp_k and warm.rounds_used == cold.rounds_used

    def test_rings_keep_their_own_kernels(self, setup):
        nonztc = _NonZtcSensingModel(setup.technology, setup.config)
        for model in (setup.model, nonztc):
            for ring in (model.bank.psro_n, model.bank.psro_p, model.bank.tsro):
                assert ring_kernel(ring) is ring_kernel(ring)
        bias = NONZTC_STAGE_N.bias_ratio
        assert ring_kernel(nonztc.bank.psro_n).fall.gate == bias
        assert ring_kernel(setup.model.bank.psro_n).fall.gate != bias

    def test_bad_outside_input_raises_the_grid_text(self, setup):
        def grid_text(**bad):
            with pytest.raises(ValueError) as raised:
                EnvironmentGrid.of(**{"temp_k": 300.0, "vdd": 1.2, **bad})
            return str(raised.value)

        cold, dead = grid_text(temp_k=-1.0), grid_text(vdd=0.0)
        model, lut = setup.model, setup.lut
        temp_k = celsius_to_kelvin(40.0)
        f_n, f_p = model.process_frequencies(0.0, 0.0, temp_k)
        f_t = model.tsro_frequency(0.0, 0.0, temp_k)
        calls = {
            cold: [
                lambda: extract_process_batch(model, f_n, f_p, -1.0, lut=lut),
                lambda: calibrate_batch(model, f_n, f_p, f_t, initial_temp_k=0.0),
                lambda: process_frequencies_batch(model, 0.0, 0.0, [300.0, -5.0]),
                lambda: tsro_frequency_batch(model, 0.0, 0.0, 0.0),
            ],
            dead: [
                lambda: extract_process_batch(model, f_n, f_p, temp_k, vdd=0.0),
                lambda: estimate_temperature_batch(model, f_t, 0.0, 0.0, vdd=-1.2),
                lambda: calibrate_batch(model, f_n, f_p, f_t, vdd=0.0, lut=lut),
                lambda: process_frequencies_batch(model, 0.0, 0.0, temp_k, vdd=0.0),
                lambda: tsro_frequency_batch(model, 0.0, 0.0, temp_k, vdd=-0.5),
            ],
        }
        for text, bad_calls in calls.items():
            for call in bad_calls:
                with pytest.raises(ValueError) as raised:
                    call()
                assert str(raised.value) == text


class TestDriftAnchoredArrays:
    """The model's mobility hook holds on the array path: a drift-anchored
    model read through ``calibrate_batch`` or ``read_population`` recovers
    the injected V_t-only drift, as ``SelfCalibrationEngine.run`` does."""

    def test_calibrate_batch_recovers_drift(self, setup):
        anchor, drift = (0.010, -0.008), (0.004, 0.015)
        mun, mup = setup.model.mobility_scales(*anchor)
        env = Environment(
            temp_k=celsius_to_kelvin(55.0),
            vdd=setup.technology.vdd,
            dvtn=anchor[0] + drift[0],
            dvtp=anchor[1] + drift[1],
            mun_scale=float(mun),
            mup_scale=float(mup),
        )
        freqs = setup.model.bank.frequencies(env)
        anchored = DriftAnchoredModel.from_time_zero(setup.model, *anchor)
        scalar = SelfCalibrationEngine(anchored, lut=None).run(
            freqs.psro_n, freqs.psro_p, freqs.tsro
        )
        batch = calibrate_batch(
            anchored,
            np.full(3, freqs.psro_n),
            np.full(3, freqs.psro_p),
            np.full(3, freqs.tsro),
        )
        for lane in range(3):
            assert batch.dvtn[lane] == scalar.dvtn
            assert batch.dvtp[lane] == scalar.dvtp
            assert batch.temp_k[lane] == scalar.temp_k
            got_drift = anchored.drift_from(batch.dvtn[lane], batch.dvtp[lane])
            assert got_drift[0] == pytest.approx(drift[0], abs=2e-4)
            assert got_drift[1] == pytest.approx(drift[1], abs=2e-4)
            assert batch.temp_k[lane] == pytest.approx(celsius_to_kelvin(55.0), abs=0.2)

    def test_read_population_recovers_drift(self, setup):
        die = die_population(4)[0]
        time_zero = build_sensor(die).read(55.0, deterministic=True)
        anchored = DriftAnchoredModel.from_time_zero(
            setup.model, time_zero.dvtn, time_zero.dvtp
        )
        aging = BtiAgingModel()
        aged = aging.age_die(die, 5.0)

        def aged_sensor():
            return PTSensor(
                setup.technology,
                setup.config,
                die=aged,
                sensing_model=anchored,
                lut=setup.lut,
            )

        readings = read_population([aged_sensor()], [55.0], deterministic=True)
        scalar = aged_sensor().read(55.0, deterministic=True)
        assert readings.temperature_c[0, 0, 0] == scalar.temperature_c
        assert readings.dvtn[0, 0, 0] == scalar.dvtn
        assert readings.dvtp[0, 0, 0] == scalar.dvtp
        got_drift = anchored.drift_from(readings.dvtn[0, 0, 0], readings.dvtp[0, 0, 0])
        injected = aging.vt_drift(5.0)
        assert got_drift[0] == pytest.approx(injected[0], abs=1e-3)
        assert got_drift[1] == pytest.approx(injected[1], abs=1e-3)
        assert readings.temperature_c[0, 0, 0] == pytest.approx(55.0, abs=0.5)


class TestPopulationEquivalence:
    def test_read_population_matches_scalar_reads(self):
        n_dies, temps_c = 5, [-20.0, 35.0, 100.0]
        batch_sensors = population_sensors(n_dies)
        scalar_sensors = population_sensors(n_dies)
        readings = read_population(batch_sensors, temps_c, repeats=2)

        for i, sensor in enumerate(scalar_sensors):
            for j, temp_c in enumerate(temps_c):
                for r in range(2):
                    scalar = sensor.read(temp_c)
                    assert readings.counts_n[i, j, r] == scalar.counts_n
                    assert readings.counts_p[i, j, r] == scalar.counts_p
                    assert readings.counts_ref[i, j, r] == scalar.counts_ref
                    assert readings.rounds_used[i, j, r] == scalar.rounds_used
                    assert bool(readings.converged[i, j, r]) == scalar.converged
                    assert readings.temperature_c[i, j, r] == scalar.temperature_c
                    assert readings.dvtn[i, j, r] == scalar.dvtn
                    assert readings.dvtp[i, j, r] == scalar.dvtp
                    np.testing.assert_allclose(
                        readings.energy_total[i, j, r], scalar.energy.total, rtol=1e-9
                    )
                    np.testing.assert_allclose(
                        readings.conversion_time[i, j, r],
                        scalar.conversion_time,
                        rtol=1e-9,
                    )

    def test_rng_streams_stay_aligned_after_batch_read(self):
        batch_sensors = population_sensors(3)
        scalar_sensors = population_sensors(3)
        read_population(batch_sensors, [25.0, 75.0])
        for sensor in scalar_sensors:
            for temp_c in (25.0, 75.0):
                sensor.read(temp_c)
        # Next conversions must consume identical rng draws on both paths.
        for batch_s, scalar_s in zip(batch_sensors, scalar_sensors):
            follow_b = batch_s.read(55.0)
            follow_s = scalar_s.read(55.0)
            assert follow_b.counts_n == follow_s.counts_n
            assert follow_b.counts_p == follow_s.counts_p
            assert follow_b.counts_ref == follow_s.counts_ref

    def test_deterministic_read_matches_scalar(self):
        sensors = population_sensors(2)
        readings = read_population(sensors, [65.0], deterministic=True)
        scalar = population_sensors(2)[0].read(65.0, deterministic=True)
        assert readings.counts_n[0, 0, 0] == scalar.counts_n
        assert readings.temperature_c[0, 0, 0] == scalar.temperature_c
        assert readings.dvtn[0, 0, 0] == scalar.dvtn
        assert readings.dvtp[0, 0, 0] == scalar.dvtp
        assert readings.rounds_used[0, 0, 0] == scalar.rounds_used

    def test_mixed_designs_rejected(self, setup):
        sensors = population_sensors(2)
        odd = PTSensor(
            setup.technology,
            config=setup.config.with_windows(
                psro_window=setup.config.psro_window * 2,
                tsro_periods=setup.config.tsro_periods,
            ),
            die=die_population(3)[2],
        )
        with pytest.raises(ValueError):
            read_population(sensors + [odd], [25.0])

    def test_uncalibrated_population_matches_scalar(self, setup):
        dies = die_population(4)
        make = lambda die: UncalibratedTsroSensor(
            setup.technology, config=setup.config, die=die, sensing_model=setup.model
        )
        batch_baselines = [make(die) for die in dies]
        scalar_baselines = [make(die) for die in dies]
        temps_c = np.array([-40.0, 30.0, 125.0])
        estimates = read_uncalibrated_population(batch_baselines, temps_c)
        assert estimates.shape == (4, 3)
        for i, baseline in enumerate(scalar_baselines):
            for j, temp_c in enumerate(temps_c):
                scalar = baseline.read_temperature(float(temp_c))
                assert estimates[i, j] == scalar


class TestCaches:
    def test_capacitance_cache_hits(self, setup):
        stage = BalancedStage()
        _CAPACITANCE_CACHE.clear()
        first = load_capacitance_cached(stage, setup.technology)
        assert len(_CAPACITANCE_CACHE) == 2  # input + load entries
        again = load_capacitance_cached(stage, setup.technology)
        assert again == first
        assert len(_CAPACITANCE_CACHE) == 2
        direct = stage.input_capacitance(setup.technology)
        assert input_capacitance_cached(stage, setup.technology) == direct

    def test_factorization_cache_behaviour(self):
        from repro.thermal.grid import ThermalLayer, build_stack_grid
        from repro.thermal.materials import BEOL, SILICON
        from repro.thermal.power import uniform_power_map
        from repro.thermal.solver import (
            clear_factorization_caches,
            factorization_cache_stats,
            steady_state,
        )

        def make_grid():
            layers = [
                ThermalLayer("die.si", 100e-6, SILICON, heat_source=True),
                ThermalLayer("die.beol", 8e-6, BEOL),
            ]
            return build_stack_grid(layers, 5e-3, 5e-3, nx=8, ny=8)

        grid = make_grid()
        power = {"die.si": uniform_power_map(8, 8, 1.0)}
        clear_factorization_caches()
        cold = steady_state(grid, power)
        stats = factorization_cache_stats()
        assert stats["steady_misses"] == 1 and stats["steady_hits"] == 0

        warm = steady_state(grid, power)
        stats = factorization_cache_stats()
        assert stats["steady_hits"] == 1
        np.testing.assert_array_equal(cold.values, warm.values)

        other = make_grid()
        steady_state(other, power)
        stats = factorization_cache_stats()
        assert stats["steady_misses"] == 2

        clear_factorization_caches()
        stats = factorization_cache_stats()
        assert stats["steady_hits"] == 0 and stats["steady_misses"] == 0
