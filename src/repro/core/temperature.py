"""Process-corrected temperature estimation from the TSRO frequency.

The TSRO frequency is exponential in temperature *and* strongly dependent on
the die's thresholds — an uncorrected TSRO is a bad thermometer (experiment
R-F4's "before" curve).  With the extracted (dV_tn, dV_tp) plugged into the
typical model, the model's f_TSRO(T) curve becomes die-specific and can be
inverted for temperature.  The curve is strictly monotone increasing in T
over any physical range, so the guard-banded range brackets the root and a
Newton search on ``ln f`` inside that bracket is exact and robust.  The
search is written once, over lanes, in
:func:`repro.batch.model.estimate_temperature_batch`; the functions here
are its one-lane calls.
"""

from __future__ import annotations

from typing import Optional

from repro.batch.model import estimate_temperature_batch
from repro.core.sensing_model import SensingModel


def estimate_temperature(
    model: SensingModel,
    f_t_measured: float,
    dvtn: float,
    dvtp: float,
    vdd: Optional[float] = None,
) -> float:
    """Invert the die-corrected TSRO curve for temperature.

    Args:
        model: The design-time sensing model.
        f_t_measured: Measured TSRO frequency in hertz.
        dvtn: Extracted NMOS threshold shift of the die, volts.
        dvtp: Extracted PMOS threshold-magnitude shift, volts.
        vdd: Supply during the measurement (``None`` = nominal).

    Returns:
        The estimated junction temperature in kelvin.

    Raises:
        TemperatureRangeError: If the reading falls outside the specified
            range (plus a small guard band).
    """
    return float(estimate_temperature_batch(model, f_t_measured, dvtn, dvtp, vdd))


def estimate_temperature_clamped(
    model: SensingModel,
    f_t_measured: float,
    dvtn: float,
    dvtp: float,
    vdd: Optional[float] = None,
) -> float:
    """Like :func:`estimate_temperature` but saturating at the range edges.

    Hardware sensors report a pegged code rather than raising; baseline
    sensors with large uncorrected process error need this behaviour to be
    evaluated across the full range at all.
    """
    return float(
        estimate_temperature_batch(model, f_t_measured, dvtn, dvtp, vdd, clamp=True)
    )
