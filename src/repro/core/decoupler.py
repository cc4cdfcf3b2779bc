"""Process decoupling: inverting ring frequencies into threshold shifts.

Given the measured (f_PSRO-N, f_PSRO-P) pair and a temperature estimate,
find the (dV_tn, dV_tp) the typical model would need to produce those
frequencies.  The on-chip-realistic implementation is a coarse LUT seed
followed by a short 2-D Newton refinement on the model — mirroring how the
silicon stores a characterisation grid and interpolates.

Because the sensitivity matrix is diagonally dominant by construction
(PSRO-N barely sees V_tp and vice versa — experiment R-F2), Newton from the
LUT seed converges in a handful of iterations everywhere inside the
characterised box.  The Newton refinement is written once, over lanes, in
:func:`repro.batch.model.extract_process_batch`; :func:`extract_process`
is its one-lane call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.batch.model import extract_process_batch
from repro.core.sensing_model import SensingModel


@dataclass(frozen=True)
class ProcessLut:
    """Precomputed (dV_tn, dV_tp) -> (f_N, f_P) characterisation grid.

    Built once at "design time" for a reference temperature and supply;
    :meth:`seed` inverts it by nearest-neighbour search, which is exactly
    as dumb as the hardware equivalent and only has to land Newton inside
    its convergence basin.
    """

    dvtn_axis: np.ndarray
    dvtp_axis: np.ndarray
    f_n_grid: np.ndarray
    f_p_grid: np.ndarray

    @classmethod
    def build(
        cls,
        model: SensingModel,
        temp_k: float = 300.0,
        vdd: Optional[float] = None,
        points: Optional[int] = None,
    ) -> "ProcessLut":
        """Characterise the model over its validity box.

        Args:
            model: The design-time sensing model.
            temp_k: Reference temperature of the characterisation.
            vdd: Supply of the characterisation (``None`` = nominal).
            points: Grid points per axis (``None`` = the config's value).
        """
        points = model.config.lut_points_per_axis if points is None else points
        if points < 2:
            raise ValueError("the LUT needs at least two points per axis")
        axis = np.linspace(-model.vt_box, model.vt_box, points)
        f_n = np.empty((points, points))
        f_p = np.empty((points, points))
        for i, dvtn in enumerate(axis):
            for j, dvtp in enumerate(axis):
                f_n[i, j], f_p[i, j] = model.process_frequencies(
                    float(dvtn), float(dvtp), temp_k, vdd
                )
        return cls(dvtn_axis=axis, dvtp_axis=axis.copy(), f_n_grid=f_n, f_p_grid=f_p)

    def seed_lanes(
        self, f_n: np.ndarray, f_p: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest grid point in relative-frequency distance, per lane of
        the flat arrays ``f_n`` and ``f_p``."""
        err_n = (self.f_n_grid - f_n[:, None, None]) / self.f_n_grid
        err_p = (self.f_p_grid - f_p[:, None, None]) / self.f_p_grid
        cost = (err_n**2 + err_p**2).reshape(f_n.size, -1)
        i, j = np.unravel_index(np.argmin(cost, axis=1), self.f_n_grid.shape)
        return self.dvtn_axis[i], self.dvtp_axis[j]

    def seed(self, f_n: float, f_p: float) -> Tuple[float, float]:
        """Nearest grid point in relative-frequency distance."""
        dvtn, dvtp = self.seed_lanes(np.array([f_n], float), np.array([f_p], float))
        return float(dvtn[0]), float(dvtp[0])


def extract_process(
    model: SensingModel,
    f_n_measured: float,
    f_p_measured: float,
    temp_k: float,
    vdd: Optional[float] = None,
    lut: Optional[ProcessLut] = None,
    iterations: Optional[int] = None,
) -> Tuple[float, float]:
    """Extract (dV_tn, dV_tp) from measured process-ring frequencies.

    One lane of :func:`repro.batch.model.extract_process_batch`.

    Args:
        model: The design-time sensing model.
        f_n_measured: Measured PSRO-N frequency in hertz.
        f_p_measured: Measured PSRO-P frequency in hertz.
        temp_k: Current temperature estimate in kelvin.
        vdd: Supply during the measurement (``None`` = nominal).
        lut: Optional prebuilt LUT for seeding; without it Newton starts
            from the typical point (0, 0), which also converges but models
            a LUT-less (cheaper, slower-locking) implementation.
        iterations: Newton iteration budget (``None`` = the config's value).

    Returns:
        The extracted ``(dvtn, dvtp)`` in volts.

    Raises:
        ExtractionDivergedError: If the iterate leaves the characterised box.
    """
    dvtn, dvtp = extract_process_batch(
        model, f_n_measured, f_p_measured, temp_k, vdd, lut=lut, iterations=iterations
    )
    return float(dvtn), float(dvtp)
