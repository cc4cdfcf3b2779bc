"""Flat *paired* conversions: one grid element per (sensor, operating point).

:func:`read_population` evaluates the cross product ``sensors x temps`` —
the right shape for sweeps, and exactly the wrong shape for a *request
stream*, where N callers each want one specific sensor at one specific
condition.  :func:`read_paired` is the ragged twin: element ``i`` of the
flat grid pairs ``sensors[i]`` with ``temps_k[i]`` (and ``vdd[i]``), so a
coalesced batch of heterogeneous read requests costs exactly N lanes of
the vectorised kernels, never a dense product.

Reproducibility is preserved draw-for-draw against the *scalar request
order*: item ``i`` consumes three counter phases from ``sensors[i]``'s
private stream at its turn, which is precisely what the sequential loop
``for i: sensors[i].read(...)`` would consume.  A sensor appearing twice
in one batch therefore yields the same two readings as two back-to-back
scalar reads, counter values and estimates alike bit-identical: the
scalar read is a one-lane call of the same calibration algorithm
(:func:`~repro.batch.model.calibrate_batch`).  ``tests/test_serve.py``
pins this for the serving path, matching the ``read_population``
contract in ``tests/test_batch_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.batch.bank import BankFrequenciesBatch, ring_frequency_batch
from repro.batch.energy import (
    ConversionEnergyBatch,
    conversion_energy_batch,
    conversion_time_batch,
)
from repro.batch.grid import EnvironmentGrid
from repro.batch.model import calibrate_batch
from repro.units import ZERO_CELSIUS_IN_KELVIN

if TYPE_CHECKING:
    from repro.core.sensor import PTSensor


@dataclass(frozen=True)
class PairedReadings:
    """Flat conversion results, one entry per requested (sensor, point) pair.

    Every array is shaped ``(n,)``; index ``i`` is field-for-field the
    :class:`~repro.core.sensor.SensorReading` the scalar call
    ``sensors[i].read_environment(env_i)`` would return.
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

    def __len__(self) -> int:
        return int(self.temperature_c.size)


def paired_grid(
    sensors: Sequence[PTSensor], temps_k: np.ndarray, vdd: np.ndarray
) -> EnvironmentGrid:
    """Flat operating grid pairing ``sensors[i]`` with ``(temps_k[i], vdd[i])``."""
    n = len(sensors)
    dvtn = np.empty(n)
    dvtp = np.empty(n)
    mun = np.ones(n)
    mup = np.ones(n)
    for i, sensor in enumerate(sensors):
        dvtn[i], dvtp[i] = sensor.true_process_shifts()
        if sensor.die is not None:
            mun[i] = sensor.die.corner.mun_scale
            mup[i] = sensor.die.corner.mup_scale
    return EnvironmentGrid.of(
        temp_k=np.asarray(temps_k, dtype=float),
        vdd=np.asarray(vdd, dtype=float),
        dvtn=dvtn,
        dvtp=dvtp,
        mun_scale=mun,
        mup_scale=mup,
    )


def _paired_bank_frequencies(
    sensors: Sequence[PTSensor], grid: EnvironmentGrid
) -> BankFrequenciesBatch:
    """True ring frequencies of each pairing, one kernel call per role."""
    reference = sensors[0]

    def role_frequencies(role: str) -> np.ndarray:
        oscillators = [getattr(s.bank, role) for s in sensors]
        template = getattr(reference.bank, role)
        return ring_frequency_batch(
            template.stage,
            template.stages,
            reference.technology,
            grid,
            vtn_offset=np.array([o.vtn_offset for o in oscillators]),
            vtp_offset=np.array([o.vtp_offset for o in oscillators]),
        )

    return BankFrequenciesBatch(
        psro_n=role_frequencies("psro_n"),
        psro_p=role_frequencies("psro_p"),
        tsro=role_frequencies("tsro"),
        reference=np.zeros(grid.shape),
    )


def read_paired(
    sensors: Sequence[PTSensor],
    temps_k,
    vdd=None,
    deterministic: bool = False,
    assume_vdd: Optional[float] = None,
) -> PairedReadings:
    """Run one full conversion per (sensor, operating point) pairing.

    Array twin of the sequential request loop ``for i:
    sensors[i].read_environment(Environment(temps_k[i], vdd[i]))`` — same
    frequencies, same quantised counts, same calibration fixes, same
    rng-stream consumption order.  ``sensors`` may contain repeats; each
    occurrence consumes that sensor's private phase stream at its position
    in the batch, so interleaving batched and scalar reads stays
    reproducible.

    Args:
        sensors: One sensor per requested conversion (a uniform design —
            validated via :meth:`PTSensor.design_key`).
        temps_k: True junction temperature per pairing, kelvin; scalar or
            shape ``(n,)``.
        vdd: True supply per pairing (``None`` = nominal); scalar or
            shape ``(n,)``.
        deterministic: Suppress counter phase randomness (mid-phase
            counts); no rng stream is consumed.
        assume_vdd: Supply the calibration logic assumes (see
            :meth:`PTSensor.read`).

    Raises:
        ValueError: On an empty batch, mixed designs, or mismatched
            array lengths.
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("need at least one (sensor, point) pairing")
    reference = sensors[0]
    reference_key = reference.design_key()
    for sensor in sensors[1:]:
        if sensor.design_key() != reference_key:
            raise ValueError(
                "read_paired requires sensors of a single design "
                "(same config, technology and stage models)"
            )
    config = reference.config

    n = len(sensors)
    temps_k = np.broadcast_to(np.asarray(temps_k, dtype=float), (n,))
    if np.any(temps_k <= 0.0):
        raise ValueError("temperatures must be above absolute zero")
    if vdd is None:
        vdd = reference.technology.vdd
    vdd = np.broadcast_to(np.asarray(vdd, dtype=float), (n,))

    grid = paired_grid(sensors, temps_k, vdd)
    frequencies = _paired_bank_frequencies(sensors, grid)

    # Counter phases: three draws per pairing, taken from each sensor's
    # private stream in batch order — the scalar loop's consumption order.
    if deterministic:
        phases = np.full((n, 3), 0.5)
    else:
        phases = np.empty((n, 3))
        for i, sensor in enumerate(sensors):
            phases[i] = sensor._rng.uniform(0.0, 1.0, size=3)

    window = config.psro_window
    max_psro = (1 << config.psro_counter_bits) - 1
    max_tsro = (1 << config.tsro_counter_bits) - 1

    f_n = frequencies.psro_n
    f_p = frequencies.psro_p
    f_t = frequencies.tsro

    counts_n = np.floor(f_n * window + phases[:, 0]).astype(np.int64) & max_psro
    counts_p = np.floor(f_p * window + phases[:, 1]).astype(np.int64) & max_psro
    counts_ref = np.minimum(
        np.floor(
            (config.tsro_periods / f_t) * config.ref_clock_hz + phases[:, 2]
        ).astype(np.int64),
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

    energy = conversion_energy_batch(reference.bank, grid, config, frequencies)
    conversion_time = conversion_time_batch(config, f_t)

    return PairedReadings(
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
