"""Whole-population sensor conversions in one vectorised pass.

:func:`read_population` is the batch front-end of the engine: it takes a
list of already-manufactured :class:`~repro.core.sensor.PTSensor` instances
(one per die) and a temperature sweep, and produces every reading the
scalar ``sensor.read(temp_c)`` double loop would — same frequencies, same
quantised counts, same calibration fixes, same energy books — as arrays of
shape ``(n_sensors, n_temps, repeats)``.

Reproducibility is preserved draw-for-draw: each sensor's private phase
stream is consumed in exactly the order the scalar loop would consume it
(temperatures outer, repeats inner, then the N/P/T counters of one
conversion), so mixing batch and scalar reads on the same sensors yields
identical sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.batch.bank import BankFrequenciesBatch, ring_frequency_batch
from repro.batch.energy import (
    ConversionEnergyBatch,
    conversion_energy_batch,
    conversion_time_batch,
)
from repro.batch.grid import EnvironmentGrid
from repro.batch.model import calibrate_batch, estimate_temperature_batch
from repro.circuits.ring_oscillator import Environment
from repro.units import ZERO_CELSIUS_IN_KELVIN

if TYPE_CHECKING:
    from repro.core.sensor import PTSensor

_BATCH_CONVERSIONS = telemetry.counter(
    "batch.population_conversions",
    unit="conversions",
    help="Conversions evaluated through the vectorised engine",
)
_BATCH_CALLS = telemetry.counter(
    "batch.read_population_calls", unit="calls", help="read_population invocations"
)
_BATCH_CONVERGENCE_FAILURES = telemetry.counter(
    "batch.convergence_failures",
    unit="conversions",
    help="Batch conversions whose self-calibration did not converge",
)
_BATCH_ROUNDS = telemetry.histogram(
    "batch.calibration_rounds",
    unit="rounds",
    help="Self-calibration rounds per batch conversion",
)


@dataclass(frozen=True)
class PopulationReadings:
    """Every conversion of a population sweep, as arrays.

    All per-reading arrays are shaped ``(n_sensors, n_temps, repeats)``;
    index ``[i, j, r]`` is the ``r``-th repeated conversion of sensor ``i``
    at the ``j``-th requested temperature — field-for-field the
    :class:`~repro.core.sensor.SensorReading` the scalar loop would return.
    """

    temperature_c: np.ndarray
    dvtn: np.ndarray
    dvtp: np.ndarray
    counts_n: np.ndarray
    counts_p: np.ndarray
    counts_ref: np.ndarray
    energy: ConversionEnergyBatch
    conversion_time: np.ndarray
    rounds_used: np.ndarray
    converged: np.ndarray

    @property
    def temperature_k(self) -> np.ndarray:
        """Estimated junction temperatures in kelvin."""
        return self.temperature_c + ZERO_CELSIUS_IN_KELVIN

    @property
    def energy_total(self) -> np.ndarray:
        """Total conversion energies in joules."""
        return self.energy.total

    def temperature_errors(self, true_temps_c) -> np.ndarray:
        """Signed reading errors against the true sweep temperatures."""
        truths = np.asarray(true_temps_c, dtype=float).reshape(1, -1, 1)
        return self.temperature_c - truths


def _require_uniform_design(sensors: Sequence[PTSensor]) -> PTSensor:
    """The batch engine evaluates one *design*; mixed populations must fall
    back to the scalar path."""
    reference = sensors[0]
    reference_key = reference.design_key()
    for sensor in sensors[1:]:
        if sensor.design_key() != reference_key:
            raise ValueError(
                "read_population requires sensors of a single design "
                "(same config, technology and stage models)"
            )
    return reference


def population_grid(
    sensors: Sequence[PTSensor], temps_k: np.ndarray, vdd: float
) -> EnvironmentGrid:
    """Physical operating grid of a population, shape ``(n_sensors, n_temps)``."""
    dvtn = np.empty(len(sensors))
    dvtp = np.empty(len(sensors))
    mun = np.ones(len(sensors))
    mup = np.ones(len(sensors))
    for i, sensor in enumerate(sensors):
        dvtn[i], dvtp[i] = sensor.true_process_shifts()
        if sensor.die is not None:
            mun[i] = sensor.die.corner.mun_scale
            mup[i] = sensor.die.corner.mup_scale
    return EnvironmentGrid.of(
        temp_k=temps_k.reshape(1, -1),
        vdd=vdd,
        dvtn=dvtn.reshape(-1, 1),
        dvtp=dvtp.reshape(-1, 1),
        mun_scale=mun.reshape(-1, 1),
        mup_scale=mup.reshape(-1, 1),
    )


def population_bank_frequencies(
    sensors: Sequence[PTSensor], grid: EnvironmentGrid
) -> BankFrequenciesBatch:
    """True ring frequencies of every sensor at every grid point.

    One kernel call per oscillator role covers the whole population: the
    per-sensor frozen mismatch offsets ride along as arrays on the sensor
    axis.  The reference ring is not powered during a conversion, so its
    lane is zero (matching the scalar energy path).
    """
    reference = sensors[0]

    def role_frequencies(role: str) -> np.ndarray:
        oscillators = [getattr(s.bank, role) for s in sensors]
        template = getattr(reference.bank, role)
        vtn = np.array([o.vtn_offset for o in oscillators]).reshape(-1, 1)
        vtp = np.array([o.vtp_offset for o in oscillators]).reshape(-1, 1)
        return ring_frequency_batch(
            template.stage,
            template.stages,
            reference.technology,
            grid,
            vtn_offset=vtn,
            vtp_offset=vtp,
        )

    return BankFrequenciesBatch(
        psro_n=role_frequencies("psro_n"),
        psro_p=role_frequencies("psro_p"),
        tsro=role_frequencies("tsro"),
        reference=np.zeros(grid.shape),
    )


def _environment_axis(envs: Sequence[Environment], vdd: Optional[float]):
    """Convert an Environment sweep into the (temps_c, vdd) the engine uses.

    The batch engine derives each sensor's process point from its die, so
    the environments may only carry temperature and supply; one that sets
    process fields would silently disagree with the per-sensor grid and is
    rejected instead.
    """
    vdds = {env.vdd for env in envs}
    if len(vdds) != 1:
        raise ValueError("environment sweep must share a single vdd")
    env_vdd = vdds.pop()
    if vdd is not None and vdd != env_vdd:
        raise ValueError("pass vdd inside the environments, not alongside them")
    for env in envs:
        if (env.dvtn, env.dvtp, env.mun_scale, env.mup_scale) != (0.0, 0.0, 1.0, 1.0):
            raise ValueError(
                "environment sweeps must leave process fields at their "
                "defaults; the population's process points come from the dies"
            )
    temps_c = np.array([env.temp_k for env in envs]) - ZERO_CELSIUS_IN_KELVIN
    return temps_c, env_vdd


def read_population(
    sensors: Sequence[PTSensor],
    temps_c,
    vdd: Optional[float] = None,
    deterministic: bool = False,
    assume_vdd: Optional[float] = None,
    repeats: int = 1,
) -> PopulationReadings:
    """Run full conversions for every (sensor, temperature, repeat) tuple.

    Array twin of the nested loop ``for sensor: for temp: for repeat:
    sensor.read(temp, ...)`` — see :meth:`PTSensor.read` for the argument
    semantics.  ``temps_c`` accepts the same environment-style call form
    as the scalar paths: a single
    :class:`~repro.circuits.ring_oscillator.Environment` or a sequence of
    them stands in for the Celsius axis (their shared ``vdd`` replaces the
    ``vdd`` argument).  Raises ``ValueError`` on an empty population,
    mixed sensor designs, or ``repeats < 1``.
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one sensor")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    reference = _require_uniform_design(sensors)
    config = reference.config

    if isinstance(temps_c, Environment):
        temps_c = [temps_c]
    if (
        isinstance(temps_c, (list, tuple))
        and temps_c
        and isinstance(temps_c[0], Environment)
    ):
        temps_c, vdd = _environment_axis(temps_c, vdd)

    temps_c = np.atleast_1d(np.asarray(temps_c, dtype=float))
    temps_k = temps_c + ZERO_CELSIUS_IN_KELVIN
    if np.any(temps_k <= 0.0):
        raise ValueError("temperatures must be above absolute zero")
    vdd = reference.technology.vdd if vdd is None else vdd

    n_sensors = len(sensors)
    n_temps = temps_c.size
    shape = (n_sensors, n_temps, repeats)

    with telemetry.span(
        "batch.read_population",
        sensors=n_sensors,
        temps=n_temps,
        repeats=repeats,
    ) as trace:
        readings = _read_population_grid(
            sensors, reference, config, temps_k, vdd, shape, deterministic, assume_vdd
        )
        _BATCH_CALLS.inc()
        _BATCH_CONVERSIONS.inc(int(np.prod(shape)))
        failures = int(np.size(readings.converged) - np.count_nonzero(readings.converged))
        _BATCH_CONVERGENCE_FAILURES.inc(failures)
        _BATCH_ROUNDS.observe_many(np.asarray(readings.rounds_used).ravel().tolist())
        trace.set(
            conversions=int(np.prod(shape)),
            convergence_failures=failures,
            rounds_mean=float(np.mean(readings.rounds_used)),
        )
        return readings


def _read_population_grid(
    sensors: Sequence[PTSensor],
    reference: PTSensor,
    config,
    temps_k: np.ndarray,
    vdd: float,
    shape,
    deterministic: bool,
    assume_vdd: Optional[float],
) -> PopulationReadings:
    """The vectorised conversion pipeline behind :func:`read_population`."""
    n_sensors, n_temps, repeats = shape

    grid = population_grid(sensors, temps_k, vdd)
    frequencies = population_bank_frequencies(sensors, grid)

    # Counter phases: one (temps, repeats, N/P/T) block per sensor, filled
    # in the scalar loop's consumption order so the private streams stay
    # aligned with any interleaved scalar reads.
    if deterministic:
        phases = np.full(shape + (3,), 0.5)
    else:
        phases = np.empty(shape + (3,))
        for i, sensor in enumerate(sensors):
            phases[i] = sensor._rng.uniform(0.0, 1.0, size=(n_temps, repeats, 3))

    window = config.psro_window
    max_psro = (1 << config.psro_counter_bits) - 1
    max_tsro = (1 << config.tsro_counter_bits) - 1

    f_n = frequencies.psro_n[:, :, None]
    f_p = frequencies.psro_p[:, :, None]
    f_t = frequencies.tsro[:, :, None]

    counts_n = np.floor(f_n * window + phases[..., 0]).astype(np.int64) & max_psro
    counts_p = np.floor(f_p * window + phases[..., 1]).astype(np.int64) & max_psro
    counts_ref = np.minimum(
        np.floor((config.tsro_periods / f_t) * config.ref_clock_hz + phases[..., 2]).astype(
            np.int64
        ),
        max_tsro,
    )
    if np.any(counts_ref < 1):
        raise ValueError("TSRO period timer returned a zero count")

    f_n_hat = counts_n / window
    f_p_hat = counts_p / window
    f_t_hat = config.tsro_periods * config.ref_clock_hz / counts_ref

    calibration = calibrate_batch(
        reference.model,
        f_n_hat,
        f_p_hat,
        f_t_hat,
        vdd=assume_vdd,
        lut=reference.lut,
    )

    full_frequencies = BankFrequenciesBatch(
        psro_n=np.broadcast_to(f_n, shape),
        psro_p=np.broadcast_to(f_p, shape),
        tsro=np.broadcast_to(f_t, shape),
        reference=np.zeros(shape),
    )
    energy = conversion_energy_batch(reference.bank, grid, config, full_frequencies)
    conversion_time = np.broadcast_to(
        conversion_time_batch(config, f_t), shape
    ).copy()

    return PopulationReadings(
        temperature_c=calibration.temp_k - ZERO_CELSIUS_IN_KELVIN,
        dvtn=calibration.dvtn,
        dvtp=calibration.dvtp,
        counts_n=counts_n,
        counts_p=counts_p,
        counts_ref=counts_ref,
        energy=energy,
        conversion_time=conversion_time,
        rounds_used=calibration.rounds_used,
        converged=calibration.converged,
    )


def read_uncalibrated_population(
    baselines: Sequence,
    temps_c,
    vdd: Optional[float] = None,
    deterministic: bool = False,
) -> np.ndarray:
    """Temperature sweep of uncalibrated-baseline sensors, in one pass.

    Array twin of looping
    :meth:`repro.baselines.uncalibrated.UncalibratedTsroSensor.read_temperature`
    over ``(baseline, temperature)``: true TSRO frequencies per die, one
    phase draw per conversion from each baseline's private stream, and the
    typical-curve inversion clamped at the range edges.  Returns estimated
    temperatures in Celsius, shape ``(n_baselines, n_temps)``.
    """
    baselines = list(baselines)
    if not baselines:
        raise ValueError("need at least one baseline sensor")
    reference = baselines[0]
    config = reference.config

    temps_c = np.atleast_1d(np.asarray(temps_c, dtype=float))
    temps_k = temps_c + ZERO_CELSIUS_IN_KELVIN
    if np.any(temps_k <= 0.0):
        raise ValueError("temperatures must be above absolute zero")
    vdd = reference.technology.vdd if vdd is None else vdd

    dvtn = np.empty(len(baselines))
    dvtp = np.empty(len(baselines))
    mun = np.ones(len(baselines))
    mup = np.ones(len(baselines))
    vtn_off = np.empty(len(baselines))
    vtp_off = np.empty(len(baselines))
    for i, baseline in enumerate(baselines):
        if baseline.die is None:
            dvtn[i] = dvtp[i] = 0.0
        else:
            dvtn[i], dvtp[i] = baseline.die.vt_shifts_at(*baseline.location)
            mun[i] = baseline.die.corner.mun_scale
            mup[i] = baseline.die.corner.mup_scale
        vtn_off[i] = baseline.bank.tsro.vtn_offset
        vtp_off[i] = baseline.bank.tsro.vtp_offset

    grid = EnvironmentGrid.of(
        temp_k=temps_k.reshape(1, -1),
        vdd=vdd,
        dvtn=dvtn.reshape(-1, 1),
        dvtp=dvtp.reshape(-1, 1),
        mun_scale=mun.reshape(-1, 1),
        mup_scale=mup.reshape(-1, 1),
    )
    tsro = reference.bank.tsro
    f_t = ring_frequency_batch(
        tsro.stage,
        tsro.stages,
        reference.technology,
        grid,
        vtn_offset=vtn_off.reshape(-1, 1),
        vtp_offset=vtp_off.reshape(-1, 1),
    )

    shape = (len(baselines), temps_c.size)
    if deterministic:
        phases = np.full(shape, 0.5)
    else:
        phases = np.empty(shape)
        for i, baseline in enumerate(baselines):
            phases[i] = baseline._rng.uniform(0.0, 1.0, size=temps_c.size)

    max_count = (1 << config.tsro_counter_bits) - 1
    counts = np.minimum(
        np.floor((config.tsro_periods / f_t) * config.ref_clock_hz + phases).astype(
            np.int64
        ),
        max_count,
    )
    if np.any(counts < 1):
        raise ValueError("TSRO period timer returned a zero count")
    f_t_hat = config.tsro_periods * config.ref_clock_hz / counts

    temp_k = estimate_temperature_batch(
        reference.model, f_t_hat, 0.0, 0.0, clamp=True
    )
    return temp_k - ZERO_CELSIUS_IN_KELVIN
