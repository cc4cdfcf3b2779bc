"""Array twins of the EKV device model.

These kernels evaluate :func:`repro.device.mosfet.drain_current` and
:func:`repro.device.stack.series_stack_current` over whole operating-point
grids in a handful of ufunc operations.  The device *geometry* stays scalar
(a population shares one netlist); what varies per point is the threshold
shift, the mobility scale, the bias voltages and the temperature — so those
enter as broadcastable ``dvt`` / ``mu_scale`` / voltage / temperature
arrays instead of per-point ``dataclasses.replace`` copies of
:class:`~repro.device.mosfet.MosfetParams`.  A series stack's equivalent
device is geometry too: :class:`StackedDevice` builds it once.

Every formula mirrors the scalar model line for line; the golden
equivalence tests in ``tests/test_batch_engine.py`` pin the two paths
together to ~1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.device.mosfet import MosfetParams
from repro.device.stack import _STACK_EFFECT_UT_PER_DEVICE
from repro.units import BOLTZMANN, ELEMENTARY_CHARGE


def thermal_voltage_batch(temp_k) -> np.ndarray:
    """``U_T = k_B T / q`` for arrays of temperatures (validated upstream)."""
    return BOLTZMANN * np.asarray(temp_k, dtype=float) / ELEMENTARY_CHARGE


def threshold_voltage_batch(params: MosfetParams, temp_k, dvt=0.0) -> np.ndarray:
    """Threshold magnitude with an array-valued extra shift ``dvt``."""
    temp_k = np.asarray(temp_k, dtype=float)
    return (params.vt0 + dvt) + params.dvt_dt * (temp_k - params.temp_ref)


def _mobility_batch(params: MosfetParams, temp_k, mu_scale=1.0) -> np.ndarray:
    temp_k = np.asarray(temp_k, dtype=float)
    return (params.mu0 * mu_scale) * (temp_k / params.temp_ref) ** (
        -params.mobility_exponent
    )


def specific_current_batch(params: MosfetParams, temp_k, mu_scale=1.0) -> np.ndarray:
    """EKV specific current over a temperature/mobility grid."""
    ut = thermal_voltage_batch(temp_k)
    return (
        2.0
        * params.n_slope
        * _mobility_batch(params, temp_k, mu_scale)
        * params.cox
        * (params.width / params.length)
        * ut
        * ut
    )


def drain_current_batch(
    params: MosfetParams, vgs, vds, temp_k, dvt=0.0, mu_scale=1.0
) -> np.ndarray:
    """Drain-current magnitude over a grid of operating points.

    Args:
        params: Scalar device geometry (shared by every point).
        vgs: Gate-source magnitudes, broadcastable array.
        vds: Drain-source magnitudes, broadcastable array.
        temp_k: Temperatures in kelvin, broadcastable array.
        dvt: Extra threshold shift per point (die corner + frozen mismatch,
            and the stack-effect lift), volts.
        mu_scale: Mobility multiplier per point.
    """
    ut = thermal_voltage_batch(temp_k)
    vt = threshold_voltage_batch(params, temp_k, dvt)
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    vp = (vgs - vt) / params.n_slope
    i_f = np.logaddexp(0.0, vp / (2.0 * ut)) ** 2
    i_r = np.logaddexp(0.0, (vp - vds) / (2.0 * ut)) ** 2
    vsat = 1.0 + params.lambda_c * np.sqrt(i_f)
    return specific_current_batch(params, temp_k, mu_scale) * (i_f - i_r) / vsat


@dataclass(frozen=True)
class StackedDevice:
    """A series stack of identical devices, reduced once to one device.

    Mirrors :func:`repro.device.stack.series_stack_params`: the equivalent
    device has length ``count * L`` and weaker velocity saturation, both
    fixed geometry; the weak-inversion threshold lift of
    ``1.5 (count-1) U_T`` is temperature dependent, so :meth:`current`
    folds it into the array-valued ``dvt``.  A one-device "stack" is the
    device itself.

    Attributes:
        params: The equivalent single device.
        lift_ut: Its threshold lift in thermal voltages (0 for one device).
    """

    params: MosfetParams
    lift_ut: float = 0.0

    @classmethod
    def of(cls, params: MosfetParams, count: int = 1) -> "StackedDevice":
        """The equivalent of ``count`` series copies of ``params``."""
        if count < 1:
            raise ValueError("stack count must be >= 1")
        if count == 1:
            return cls(params)
        equivalent = replace(
            params,
            length=params.length * count,
            lambda_c=params.lambda_c / count,
        )
        return cls(equivalent, _STACK_EFFECT_UT_PER_DEVICE * (count - 1))

    def current(self, vgs, vds, temp_k, dvt=0.0, mu_scale=1.0) -> np.ndarray:
        """Drain current of the stack over a grid (arguments as
        :func:`drain_current_batch`)."""
        if self.lift_ut:
            dvt = dvt + self.lift_ut * thermal_voltage_batch(temp_k)
        return drain_current_batch(
            self.params, vgs, vds, temp_k, dvt=dvt, mu_scale=mu_scale
        )


def series_stack_current_batch(
    params: MosfetParams, count: int, vgs, vds, temp_k, dvt=0.0, mu_scale=1.0
) -> np.ndarray:
    """Drain current of a ``count``-deep series stack over a grid.

    Mirrors :func:`repro.device.stack.series_stack_current`; see
    :class:`StackedDevice`, which a compiled stage holds instead.
    """
    return StackedDevice.of(params, count).current(
        vgs, vds, temp_k, dvt=dvt, mu_scale=mu_scale
    )
