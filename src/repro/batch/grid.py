"""Broadcastable operating-point grids for the batch evaluation engine.

An :class:`EnvironmentGrid` is the array twin of
:class:`repro.circuits.ring_oscillator.Environment`: each field holds a
NumPy array (or scalar) of operating-point coordinates, and the fields only
have to be *broadcastable* against each other.  A 200-die x 9-temperature
sweep is therefore six tiny arrays — per-die threshold shifts shaped
``(200, 1)`` against a temperature axis shaped ``(9,)`` — not 1800
``Environment`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.ring_oscillator import Environment
from repro.variation.montecarlo import DieSample


def _as_float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def check_grid_values(temp_k=None, vdd=None) -> None:
    """The temperature and supply checks of a validated grid, on the fields
    given: for callers that build unchecked grids and check their outside
    input once instead.

    Raises:
        ValueError: On a non-positive temperature or supply.
    """
    if temp_k is not None and np.any(temp_k <= 0.0):
        raise ValueError("all temperatures must be positive kelvin")
    if vdd is not None and np.any(vdd <= 0.0):
        raise ValueError("all vdd values must be positive")


@dataclass(frozen=True)
class EnvironmentGrid:
    """A broadcastable grid of circuit operating points.

    Attributes mirror :class:`Environment` exactly, but every field is an
    array (or scalar) and the batch kernels evaluate all points in a handful
    of ufunc operations.

    Attributes:
        temp_k: Junction temperatures in kelvin.
        vdd: Supply voltages in volts.
        dvtn: Systematic NMOS threshold shifts, volts.
        dvtp: Systematic PMOS threshold-magnitude shifts, volts.
        mun_scale: NMOS mobility multipliers.
        mup_scale: PMOS mobility multipliers.
    """

    temp_k: np.ndarray
    vdd: np.ndarray
    dvtn: np.ndarray
    dvtp: np.ndarray
    mun_scale: np.ndarray
    mup_scale: np.ndarray

    def __post_init__(self) -> None:
        for name in ("temp_k", "vdd", "dvtn", "dvtp", "mun_scale", "mup_scale"):
            object.__setattr__(self, name, _as_float_array(getattr(self, name)))
        # Fails loudly (and early) on incompatible shapes.
        shape = self.shape
        del shape
        check_grid_values(self.temp_k, self.vdd)
        if np.any(self.mun_scale <= 0.0) or np.any(self.mup_scale <= 0.0):
            raise ValueError("all mobility scales must be positive")

    @classmethod
    def _unchecked(
        cls, temp_k, vdd, dvtn, dvtp, mun_scale, mup_scale
    ) -> "EnvironmentGrid":
        """A grid of broadcastable float arrays, taken as they are: for a
        solver's inner loop, which builds one per model call from arrays it
        made itself after checking its outside input once
        (:func:`check_grid_values`)."""
        grid = object.__new__(cls)
        grid.__dict__.update(
            temp_k=temp_k,
            vdd=vdd,
            dvtn=dvtn,
            dvtp=dvtp,
            mun_scale=mun_scale,
            mup_scale=mup_scale,
        )
        return grid

    @property
    def shape(self) -> Tuple[int, ...]:
        """Broadcast shape of the grid."""
        return np.broadcast_shapes(
            np.shape(self.temp_k),
            np.shape(self.vdd),
            np.shape(self.dvtn),
            np.shape(self.dvtp),
            np.shape(self.mun_scale),
            np.shape(self.mup_scale),
        )

    @property
    def size(self) -> int:
        """Number of operating points in the grid."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @classmethod
    def of(
        cls,
        temp_k,
        vdd,
        dvtn=0.0,
        dvtp=0.0,
        mun_scale=1.0,
        mup_scale=1.0,
    ) -> "EnvironmentGrid":
        """Build a grid from broadcastable scalars/arrays."""
        return cls(
            temp_k=temp_k,
            vdd=vdd,
            dvtn=dvtn,
            dvtp=dvtp,
            mun_scale=mun_scale,
            mup_scale=mup_scale,
        )

    @classmethod
    def from_environment(cls, env: Environment) -> "EnvironmentGrid":
        """A zero-dimensional grid holding one scalar operating point."""
        return cls.of(
            temp_k=env.temp_k,
            vdd=env.vdd,
            dvtn=env.dvtn,
            dvtp=env.dvtp,
            mun_scale=env.mun_scale,
            mup_scale=env.mup_scale,
        )

    @classmethod
    def from_environments(cls, envs: Iterable[Environment]) -> "EnvironmentGrid":
        """A one-dimensional grid stacking scalar environments."""
        envs = list(envs)
        if not envs:
            raise ValueError("need at least one environment")
        return cls.of(
            temp_k=[e.temp_k for e in envs],
            vdd=[e.vdd for e in envs],
            dvtn=[e.dvtn for e in envs],
            dvtp=[e.dvtp for e in envs],
            mun_scale=[e.mun_scale for e in envs],
            mup_scale=[e.mup_scale for e in envs],
        )

    @classmethod
    def product(
        cls,
        temps_k: Sequence[float],
        vdds: Sequence[float],
        dvtn=0.0,
        dvtp=0.0,
        mun_scale=1.0,
        mup_scale=1.0,
    ) -> "EnvironmentGrid":
        """Outer (temperature x supply) grid, shape ``(n_temps, n_vdds)``."""
        temps = _as_float_array(temps_k).reshape(-1, 1)
        vdds = _as_float_array(vdds).reshape(1, -1)
        return cls.of(
            temp_k=temps,
            vdd=vdds,
            dvtn=dvtn,
            dvtp=dvtp,
            mun_scale=mun_scale,
            mup_scale=mup_scale,
        )

    @classmethod
    def for_dies(
        cls,
        dies: Sequence[DieSample],
        location: Tuple[float, float],
        temps_k,
        vdd,
    ) -> "EnvironmentGrid":
        """Per-die sweep grid, shape ``(n_dies, n_temps)``.

        The die axis carries each die's systematic threshold shifts at the
        sensor ``location`` and the corner mobility scales; the temperature
        axis broadcasts across it.  This is the array twin of calling
        :func:`repro.circuits.oscillator_bank.environment_for_die` in a
        double loop.
        """
        if not dies:
            raise ValueError("need at least one die")
        x, y = location
        shifts = np.array([die.vt_shifts_at(x, y) for die in dies])
        mun = np.array([die.corner.mun_scale for die in dies])
        mup = np.array([die.corner.mup_scale for die in dies])
        temps = np.atleast_1d(_as_float_array(temps_k)).reshape(1, -1)
        return cls.of(
            temp_k=temps,
            vdd=vdd,
            dvtn=shifts[:, 0].reshape(-1, 1),
            dvtp=shifts[:, 1].reshape(-1, 1),
            mun_scale=mun.reshape(-1, 1),
            mup_scale=mup.reshape(-1, 1),
        )

    def broadcast(self) -> "EnvironmentGrid":
        """A copy with every field materialised at the full broadcast shape."""
        shape = self.shape
        return EnvironmentGrid(
            temp_k=np.broadcast_to(self.temp_k, shape).copy(),
            vdd=np.broadcast_to(self.vdd, shape).copy(),
            dvtn=np.broadcast_to(self.dvtn, shape).copy(),
            dvtp=np.broadcast_to(self.dvtp, shape).copy(),
            mun_scale=np.broadcast_to(self.mun_scale, shape).copy(),
            mup_scale=np.broadcast_to(self.mup_scale, shape).copy(),
        )

    def environment_at(self, index) -> Environment:
        """The scalar :class:`Environment` at a grid index (cross-checking)."""
        shape = self.shape

        def pick(field: np.ndarray) -> float:
            return float(np.broadcast_to(field, shape)[index])

        return Environment(
            temp_k=pick(self.temp_k),
            vdd=pick(self.vdd),
            dvtn=pick(self.dvtn),
            dvtp=pick(self.dvtp),
            mun_scale=pick(self.mun_scale),
            mup_scale=pick(self.mup_scale),
        )

    def environments(self) -> Iterable[Environment]:
        """Iterate all points as scalar environments (golden-test helper)."""
        for index in np.ndindex(self.shape):
            yield self.environment_at(index)
