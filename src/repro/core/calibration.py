"""The self-calibration engine: joint process/temperature lock-in.

This is the heart of the paper.  A conventional RO thermal sensor needs
two-point factory calibration in a temperature chamber because its RO
frequency confounds process and temperature.  The paper's sensor breaks the
confounding *on chip*: the process rings are first-order
temperature-insensitive (ZTC bias) and the temperature ring is
process-correctable, so alternating the two estimators converges to a joint
(dV_tn, dV_tp, T) fix with no external reference of any kind:

    T_hat  <- nominal
    repeat `calibration_rounds` times:
        (dV_tn, dV_tp) <- extract_process(f_N, f_P | T_hat)
        T_hat          <- estimate_temperature(f_T | dV_tn, dV_tp)

Convergence is geometric with ratio ~ (PSRO temperature sensitivity) x
(TSRO inversion gain), which the ZTC bias makes ~1e-2 — two or three rounds
suffice (ablated in experiment R-A1).

The loop is written once, over lanes, in
:func:`repro.batch.model.calibrate_batch`; :meth:`SelfCalibrationEngine.run`
is its one-lane call, so a sensor read alone and the same counts read in a
request batch or a population give the same bits.  The loop's two steps,
:func:`extract_process` and :func:`estimate_temperature`, are one-lane
calls too and are exported here beside the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.batch.model import calibrate_batch
from repro.core.decoupler import ProcessLut, extract_process
from repro.core.sensing_model import SensingModel
from repro.core.temperature import estimate_temperature

__all__ = [
    "CalibrationState",
    "SelfCalibrationEngine",
    "estimate_temperature",
    "extract_process",
]


@dataclass(frozen=True)
class CalibrationState:
    """The converged output of one self-calibration run.

    Attributes:
        dvtn: Extracted NMOS threshold shift, volts.
        dvtp: Extracted PMOS threshold-magnitude shift, volts.
        temp_k: Jointly estimated junction temperature, kelvin.
        rounds_used: Alternation rounds actually executed.
        converged: Whether the temperature iterate moved less than the
            convergence threshold in the final round.
    """

    dvtn: float
    dvtp: float
    temp_k: float
    rounds_used: int
    converged: bool


@dataclass(frozen=True)
class SelfCalibrationEngine:
    """Runs the alternating process/temperature estimation loop.

    Attributes:
        model: The design-time sensing model (shared across all sensor
            instances of a design — it is burned into the netlist).
        lut: Optional process LUT for Newton seeding.
        convergence_k: Temperature movement below which a round is
            declared converged, kelvin.
    """

    model: SensingModel
    lut: Optional[ProcessLut] = None
    convergence_k: float = 0.05

    def run(
        self,
        f_n_measured: float,
        f_p_measured: float,
        f_t_measured: float,
        vdd: Optional[float] = None,
        initial_temp_k: float = 300.0,
        rounds: Optional[int] = None,
    ) -> CalibrationState:
        """Execute the self-calibration loop on one set of measurements.

        Args:
            f_n_measured: Measured PSRO-N frequency, hertz.
            f_p_measured: Measured PSRO-P frequency, hertz.
            f_t_measured: Measured TSRO frequency, hertz.
            vdd: Supply during the measurement (``None`` = nominal).
            initial_temp_k: Starting temperature assumption.
            rounds: Alternation budget (``None`` = the config's value).

        Returns:
            The converged :class:`CalibrationState`.

        Raises:
            CalibrationError: If the loop exhausts its budget while the
                temperature iterate is still moving by more than the
                convergence threshold.
        """
        state = calibrate_batch(
            self.model,
            f_n_measured,
            f_p_measured,
            f_t_measured,
            vdd=vdd,
            initial_temp_k=initial_temp_k,
            rounds=rounds,
            lut=self.lut,
            convergence_k=self.convergence_k,
        )
        return CalibrationState(
            dvtn=float(state.dvtn),
            dvtp=float(state.dvtp),
            temp_k=float(state.temp_k),
            rounds_used=int(state.rounds_used),
            converged=bool(state.converged),
        )
