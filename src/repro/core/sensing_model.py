"""The design-time sensing model: typical-bank response surfaces.

At design time the sensor's authors characterise the *typical* oscillator
bank — no mismatch, nominal corner — across threshold shifts, temperature
and supply, and burn the result into on-chip logic (LUT plus small
arithmetic).  :class:`SensingModel` is that characterisation: it wraps a
mismatch-free :class:`~repro.circuits.OscillatorBank` and answers the two
questions the calibration engine asks:

* "what frequencies *would* the typical bank produce at process point
  (dV_tn, dV_tp), temperature T, supply V_DD?" (forward model), and
* "how do the process-ring frequencies move per volt of threshold shift?"
  (Jacobian, for Newton inversion).

One physical subtlety is encoded here: the model cannot observe mobility
independently, so it assumes the foundry's standard threshold-mobility
coupling (a fast-V_t die is also a high-mobility die).  Dies that violate
the coupling contribute residual error — part of the paper's error budget,
not a free lunch.  :meth:`SensingModel.mobility_scales` is the one place
the coupling is written: the scalar :meth:`~SensingModel.environment` and
the array grids of :mod:`repro.batch.model` both read it, so a subclass
that changes it (:class:`~repro.core.drift.DriftAnchoredModel`) holds on
every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.circuits.oscillator_bank import OscillatorBank, build_oscillator_bank
from repro.circuits.ring_oscillator import Environment
from repro.config import SensorConfig
from repro.device.technology import Technology
from repro.variation import corners


@dataclass(frozen=True)
class SensingModel:
    """Forward frequency model of the typical (mismatch-free) bank.

    Attributes:
        technology: Technology the sensor is designed in.
        config: Sensor design parameters (stage counts).
        vt_box: Half-width of the characterised (dV_tn, dV_tp) box, volts.
            Extractions outside the box are declared diverged.
    """

    technology: Technology
    config: SensorConfig = field(default_factory=SensorConfig)
    vt_box: float = 0.080

    def __post_init__(self) -> None:
        bank = build_oscillator_bank(
            self.technology,
            die=None,
            psro_stages=self.config.psro_stages,
            tsro_stages=self.config.tsro_stages,
        )
        # Frozen dataclass: stash the derived bank via object.__setattr__.
        object.__setattr__(self, "_bank", bank)

    @property
    def bank(self) -> OscillatorBank:
        """The typical oscillator bank the model is characterised from."""
        return self._bank

    def mobility_scales(self, dvtn, dvtp):
        """``(mun_scale, mup_scale)`` the model assumes at a process point.

        Mobility is tied to threshold through the foundry coupling (see
        module docstring); the calibration logic has no independent
        mobility observable.  Array-safe: the batch grids pass arrays.
        """
        return corners.mobility_scales(dvtn, dvtp)

    def environment(
        self, dvtn: float, dvtp: float, temp_k: float, vdd: Optional[float] = None
    ) -> Environment:
        """Typical-die environment at a hypothetical process point."""
        mun, mup = self.mobility_scales(dvtn, dvtp)
        return Environment(
            temp_k=temp_k,
            vdd=self.technology.vdd if vdd is None else vdd,
            dvtn=dvtn,
            dvtp=dvtp,
            mun_scale=float(mun),
            mup_scale=float(mup),
        )

    def process_frequencies(
        self, dvtn: float, dvtp: float, temp_k: float, vdd: Optional[float] = None
    ) -> Tuple[float, float]:
        """Model (f_PSRO-N, f_PSRO-P) at a process point, in hertz."""
        env = self.environment(dvtn, dvtp, temp_k, vdd)
        return self._bank.psro_n.frequency(env), self._bank.psro_p.frequency(env)

    def tsro_frequency(
        self, dvtn: float, dvtp: float, temp_k: float, vdd: Optional[float] = None
    ) -> float:
        """Model TSRO frequency at a process point, in hertz."""
        env = self.environment(dvtn, dvtp, temp_k, vdd)
        return self._bank.tsro.frequency(env)

    def process_jacobian(
        self,
        dvtn: float,
        dvtp: float,
        temp_k: float,
        vdd: Optional[float] = None,
        delta: float = 0.5e-3,
    ) -> np.ndarray:
        """2x2 Jacobian d(f_N, f_P)/d(dV_tn, dV_tp) in Hz/V.

        Central differences on the forward model; ``delta`` is 0.5 mV, far
        inside the model's smooth region.
        """
        jac = np.empty((2, 2))
        for col, (dn, dp) in enumerate(((delta, 0.0), (0.0, delta))):
            f_hi = self.process_frequencies(dvtn + dn, dvtp + dp, temp_k, vdd)
            f_lo = self.process_frequencies(dvtn - dn, dvtp - dp, temp_k, vdd)
            jac[0, col] = (f_hi[0] - f_lo[0]) / (2.0 * delta)
            jac[1, col] = (f_hi[1] - f_lo[1]) / (2.0 * delta)
        return jac

    def decoupling_ratio(self, temp_k: float, vdd: Optional[float] = None) -> float:
        """Diagonal dominance of the sensitivity matrix at a condition.

        The ratio of the smaller diagonal to the larger off-diagonal
        *relative* sensitivity; the larger it is, the better conditioned the
        process decoupling.  Reported in experiment R-F2.
        """
        f_n0, f_p0 = self.process_frequencies(0.0, 0.0, temp_k, vdd)
        jac = self.process_jacobian(0.0, 0.0, temp_k, vdd)
        rel = np.abs(jac / np.array([[f_n0], [f_p0]]))
        diag = min(rel[0, 0], rel[1, 1])
        off = max(rel[0, 1], rel[1, 0])
        if off == 0.0:
            return np.inf
        return float(diag / off)

    def inside_box(self, dvtn, dvtp):
        """Whether process points lie inside the characterised box (array-safe)."""
        return (np.abs(dvtn) <= self.vt_box) & (np.abs(dvtp) <= self.vt_box)
