"""The self-calibration algorithm, written once over lanes.

One lane is one conversion.  :func:`calibrate_batch` alternates a
LUT-seeded 2-D Newton extraction of (dV_tn, dV_tp) with a process-corrected
TSRO inversion until the temperature fix stops moving.  The scalar entry
points of :mod:`repro.core` (``extract_process``, ``estimate_temperature``
and its clamped form, ``SelfCalibrationEngine.run``) are one-lane calls of
these functions, so a conversion gives the same bits whether one sensor, a
request batch or a population computes it.

A model call costs about the same at one lane as at a hundred, so the
algorithm makes few of them: each Newton iteration evaluates its base
point and its four 0.5 mV Jacobian points in one call; the TSRO curve,
whose logarithm is nearly linear in temperature, inverts by Newton on
``ln f`` from the previous round's temperature, inside the guard-banded
range bracket with bisection as the fallback; and every round and
iteration runs only the lanes still moving.  The scalar frequency model of
:mod:`repro.circuits` stays the physics reference the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.batch.bank import oscillator_frequency_batch
from repro.batch.grid import EnvironmentGrid
from repro.core.errors import (
    CalibrationError,
    ExtractionDivergedError,
    TemperatureRangeError,
)
from repro.core.sensing_model import SensingModel
from repro.units import celsius_to_kelvin

if TYPE_CHECKING:
    from repro.core.decoupler import ProcessLut

# How far beyond the specified range the estimator searches before
# declaring the reading out of range.  Sensors report slightly beyond spec
# rather than failing at the boundary.
RANGE_GUARD_K = 15.0

_JACOBIAN_STEP_V = 0.5e-3  # as SensingModel.process_jacobian
_RESIDUAL_HZ = 1.0  # a lane's extraction stops below this residual
_SLOPE_STEP_K = 1e-3  # forward difference of d(ln f_TSRO)/dT
# The inversion stops on a Newton step shorter than this; convergence is
# quadratic, so the answer is then within ~1e-10 K, far below the 0.05 K
# step that ends a calibration round.
_NEWTON_STEP_K = 1e-4
# Each inversion iteration steps inside the bracket or halves it: a backstop.
_INVERSION_ITERATIONS = 100


def _lanes(*values):
    """``values`` broadcast together as flat contiguous float lanes, and
    the shape the results go back in."""
    arrays = [np.asarray(value, dtype=float) for value in values]
    shape = np.broadcast_shapes(*(array.shape for array in arrays))
    return [np.broadcast_to(array, shape).ravel() for array in arrays], shape


def _model_grid(
    model: SensingModel, dvtn, dvtp, temp_k, vdd: Optional[float]
) -> EnvironmentGrid:
    """Typical-die grid at hypothetical process points: the array form of
    :meth:`SensingModel.environment`, mobility from the model's hook."""
    mun, mup = model.mobility_scales(dvtn, dvtp)
    return EnvironmentGrid.of(
        temp_k=temp_k,
        vdd=model.technology.vdd if vdd is None else vdd,
        dvtn=dvtn,
        dvtp=dvtp,
        mun_scale=mun,
        mup_scale=mup,
    )


def process_frequencies_batch(
    model: SensingModel, dvtn, dvtp, temp_k, vdd: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Model (f_PSRO-N, f_PSRO-P) arrays at process-point arrays."""
    grid = _model_grid(model, dvtn, dvtp, temp_k, vdd)
    return (
        oscillator_frequency_batch(model.bank.psro_n, grid),
        oscillator_frequency_batch(model.bank.psro_p, grid),
    )


def tsro_frequency_batch(
    model: SensingModel, dvtn, dvtp, temp_k, vdd: Optional[float] = None
) -> np.ndarray:
    """Model TSRO frequency array at process-point arrays."""
    grid = _model_grid(model, dvtn, dvtp, temp_k, vdd)
    return oscillator_frequency_batch(model.bank.tsro, grid)


def extract_process_batch(
    model: SensingModel,
    f_n_measured,
    f_p_measured,
    temp_k,
    vdd: Optional[float] = None,
    lut: Optional[ProcessLut] = None,
    iterations: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract (dV_tn, dV_tp) per lane from measured process-ring frequencies.

    Each lane starts at its LUT seed (the typical point without a LUT) and
    Newton-iterates on the model at its temperature estimate until both
    residuals are below 1 Hz or ``iterations`` (``None`` = the config's
    value) steps are spent.

    Raises:
        ValueError: On a non-positive frequency.
        ExtractionDivergedError: If a lane's sensitivity matrix is
            singular, its iterate leaves the box inflated by half, or its
            result lies outside the characterised box.
    """
    (f_n, f_p, temp_k), shape = _lanes(f_n_measured, f_p_measured, temp_k)
    if np.any(f_n <= 0.0) or np.any(f_p <= 0.0):
        raise ValueError("measured frequencies must be positive")
    iterations = model.config.newton_iterations if iterations is None else iterations
    if lut is not None:
        dvtn, dvtp = lut.seed_lanes(f_n, f_p)
    else:
        dvtn, dvtp = np.zeros(f_n.size), np.zeros(f_n.size)

    delta = _JACOBIAN_STEP_V
    margin = 1.5 * model.vt_box
    live = np.arange(f_n.size)
    for _ in range(iterations):
        n, p = dvtn[live], dvtp[live]
        fn, fp = process_frequencies_batch(
            model,
            np.concatenate((n, n + delta, n - delta, n, n)),
            np.concatenate((p, p, p, p + delta, p - delta)),
            np.tile(temp_k[live], 5),
            vdd,
        )
        fn, fp = fn.reshape(5, -1), fp.reshape(5, -1)
        res_n, res_p = fn[0] - f_n[live], fp[0] - f_p[live]
        # Written so a NaN residual keeps moving (and then diverges).
        moving = ~(np.maximum(np.abs(res_n), np.abs(res_p)) < _RESIDUAL_HZ)
        if not moving.any():
            break
        live, res_n, res_p = live[moving], res_n[moving], res_p[moving]
        j_nn = (fn[1] - fn[2])[moving] / (2.0 * delta)
        j_np = (fn[3] - fn[4])[moving] / (2.0 * delta)
        j_pn = (fp[1] - fp[2])[moving] / (2.0 * delta)
        j_pp = (fp[3] - fp[4])[moving] / (2.0 * delta)
        det = j_nn * j_pp - j_np * j_pn
        if np.any(det == 0.0):
            lane = int(live[np.argmax(det == 0.0)])
            raise ExtractionDivergedError(
                f"singular sensitivity matrix at lane {lane}: "
                f"dvtn={dvtn[lane]:.4f}, dvtp={dvtp[lane]:.4f}"
            )
        dvtn[live] -= (j_pp * res_n - j_np * res_p) / det
        dvtp[live] -= (j_nn * res_p - j_pn * res_n) / det
        left = (np.abs(dvtn[live]) > margin) | (np.abs(dvtp[live]) > margin)
        if left.any():
            lane = int(live[np.argmax(left)])
            raise ExtractionDivergedError(
                f"iterate left the characterised box at lane {lane}: "
                f"dvtn={dvtn[lane]:.4f}, dvtp={dvtp[lane]:.4f}"
            )

    outside = ~model.inside_box(dvtn, dvtp)
    if outside.any():
        lane = int(np.argmax(outside))
        raise ExtractionDivergedError(
            f"extraction settled outside the characterised box at lane {lane}: "
            f"dvtn={dvtn[lane]:.4f}, dvtp={dvtp[lane]:.4f}"
        )
    return dvtn.reshape(shape), dvtp.reshape(shape)


def _invert_tsro(model, f_t, dvtn, dvtp, vdd, start_k, clamp: bool) -> np.ndarray:
    """Temperature per lane of the flat lanes ``f_t``, ``dvtn``, ``dvtp``.

    Safeguarded Newton on ``ln f(T) - ln f_t`` from ``start_k``: every
    evaluation narrows the lane's bracket, and a step that would leave it
    bisects instead.  The first model call also evaluates both ends of the
    guard-banded range: that is the range check.
    """
    if not np.all(f_t > 0.0):
        raise ValueError("measured TSRO frequency must be positive")
    lo_k = celsius_to_kelvin(model.config.temp_min_c) - RANGE_GUARD_K
    hi_k = celsius_to_kelvin(model.config.temp_max_c) + RANGE_GUARD_K
    size = f_t.size
    t = np.clip(start_k, lo_k, hi_k)
    ends = np.repeat((lo_k, hi_k), size)
    f = tsro_frequency_batch(
        model,
        np.tile(dvtn, 4),
        np.tile(dvtp, 4),
        np.concatenate((ends, t, t + _SLOPE_STEP_K)),
        vdd,
    ).reshape(4, size)
    below, above = f_t < f[0], f_t > f[1]
    if not clamp and (below | above).any():
        lane = int(np.argmax(below | above))
        raise TemperatureRangeError(
            f"TSRO frequency {f_t[lane] / 1e6:.3f} MHz at lane {lane} maps "
            f"outside [{model.config.temp_min_c}, {model.config.temp_max_c}] degC"
        )
    temp = np.where(below, lo_k, hi_k)

    live = np.flatnonzero(~(below | above))
    target, t, ln_f = np.log(f_t[live]), t[live], np.log(f[2:, live])
    lo, hi = np.full(live.size, lo_k), np.full(live.size, hi_k)
    for _ in range(_INVERSION_ITERATIONS):
        residual = ln_f[0] - target
        lo, hi = np.where(residual < 0.0, t, lo), np.where(residual < 0.0, hi, t)
        slope = (ln_f[1] - ln_f[0]) / _SLOPE_STEP_K
        newton = t - residual / np.where(slope > 0.0, slope, 1.0)
        inside = (slope > 0.0) & (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, 0.5 * (lo + hi))
        done = inside & (np.abs(step - t) < _NEWTON_STEP_K)
        temp[live[done]] = step[done]
        going = ~done
        live, target, t = live[going], target[going], step[going]
        lo, hi = lo[going], hi[going]
        if not live.size:
            break
        ln_f = np.log(
            tsro_frequency_batch(
                model,
                np.tile(dvtn[live], 2),
                np.tile(dvtp[live], 2),
                np.concatenate((t, t + _SLOPE_STEP_K)),
                vdd,
            ).reshape(2, -1)
        )
    temp[live] = t
    return temp


def estimate_temperature_batch(
    model: SensingModel,
    f_t_measured,
    dvtn,
    dvtp,
    vdd: Optional[float] = None,
    clamp: bool = False,
) -> np.ndarray:
    """Invert each lane's die-corrected TSRO curve for temperature, kelvin.

    The curve is strictly monotone in temperature, so the guard-banded
    specified range brackets every in-range root; the search starts at
    300 K, the calibration loop's default prior.  With ``clamp=True``
    out-of-range lanes peg at the bracket ends (the hardware behaviour of
    :func:`~repro.core.temperature.estimate_temperature_clamped`);
    otherwise any out-of-range lane raises :class:`TemperatureRangeError`.
    """
    (f_t, dvtn, dvtp), shape = _lanes(f_t_measured, dvtn, dvtp)
    temp = _invert_tsro(model, f_t, dvtn, dvtp, vdd, np.full(f_t.size, 300.0), clamp)
    return temp.reshape(shape)


@dataclass(frozen=True)
class BatchCalibration:
    """Converged self-calibration state for every lane (the array form of
    :class:`repro.core.calibration.CalibrationState`)."""

    dvtn: np.ndarray
    dvtp: np.ndarray
    temp_k: np.ndarray
    rounds_used: np.ndarray
    converged: np.ndarray


def calibrate_batch(
    model: SensingModel,
    f_n_measured,
    f_p_measured,
    f_t_measured,
    vdd: Optional[float] = None,
    initial_temp_k: float = 300.0,
    rounds: Optional[int] = None,
    lut: Optional[ProcessLut] = None,
    convergence_k: float = 0.05,
) -> BatchCalibration:
    """Self-calibrate every lane: alternate process extraction and
    temperature inversion until the temperature fix moves less than
    ``convergence_k``.

    A lane that settles stops; the others run on for up to ``rounds``
    (``None`` = the config's value) rounds.  Each round's inversion starts
    at the lane's previous temperature (``initial_temp_k`` at first).

    Raises:
        CalibrationError: If any lane exhausts the round budget while its
            temperature iterate is still moving (and ``rounds >= 2``: one
            round is the ablation's deliberate single pass).
    """
    (f_n, f_p, f_t), shape = _lanes(f_n_measured, f_p_measured, f_t_measured)
    rounds = model.config.calibration_rounds if rounds is None else rounds
    temp_k = np.full(f_n.size, float(initial_temp_k))
    dvtn, dvtp, moved = np.zeros(f_n.size), np.zeros(f_n.size), np.zeros(f_n.size)
    rounds_used = np.zeros(f_n.size, dtype=int)
    converged = np.zeros(f_n.size, dtype=bool)

    live = np.arange(f_n.size)
    for round_index in range(1, rounds + 1):
        dvtn[live], dvtp[live] = extract_process_batch(
            model, f_n[live], f_p[live], temp_k[live], vdd, lut=lut
        )
        new_temp = _invert_tsro(
            model, f_t[live], dvtn[live], dvtp[live], vdd, temp_k[live], clamp=False
        )
        moved[live] = np.abs(new_temp - temp_k[live])
        temp_k[live] = new_temp
        rounds_used[live] = round_index
        settled = moved[live] < convergence_k
        converged[live[settled]] = True
        live = live[~settled]
        if not live.size:
            break

    if live.size and rounds >= 2:
        raise CalibrationError(
            f"self-calibration still moving {float(np.max(moved[live])):.3f} K "
            f"on {live.size} lanes after {rounds} rounds"
        )
    return BatchCalibration(
        dvtn=dvtn.reshape(shape),
        dvtp=dvtp.reshape(shape),
        temp_k=temp_k.reshape(shape),
        rounds_used=rounds_used.reshape(shape),
        converged=converged.reshape(shape),
    )
