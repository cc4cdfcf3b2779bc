"""Batch evaluation of ring oscillators and whole oscillator banks.

Every ring evaluates through its design's compiled
:class:`~repro.batch.stages.StageKernel`.  A :class:`RingOscillator` keeps
its kernel from its first evaluation on (:func:`ring_kernel`), so the
three model rings, which a self-calibration evaluates about twenty times
per conversion, size their devices once per
:class:`~repro.core.sensing_model.SensingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.grid import EnvironmentGrid
from repro.batch.stages import StageKernel, compile_stage
from repro.circuits.inverter import StageModel, load_capacitance_cached
from repro.circuits.oscillator_bank import BankFrequencies, OscillatorBank
from repro.circuits.ring_oscillator import _SHORT_CIRCUIT_FACTOR, RingOscillator
from repro.device.technology import Technology


def design_kernel(stage: StageModel, technology: Technology) -> StageKernel:
    """The compiled kernel of a stage design in a technology."""
    return compile_stage(
        stage,
        technology.nmos,
        technology.pmos,
        load_capacitance_cached(stage, technology),
    )


def ring_kernel(osc: RingOscillator) -> StageKernel:
    """The compiled kernel of ``osc``'s design, built on first use and kept
    on the (frozen) instance, like a model's derived bank.  Two threads
    that race here build equal kernels, and either may be kept."""
    kernel = osc.__dict__.get("_kernel")
    if kernel is None:
        kernel = design_kernel(osc.stage, osc.technology)
        object.__setattr__(osc, "_kernel", kernel)
    return kernel


def _period(
    kernel: StageKernel, stages: int, grid: EnvironmentGrid, vtn_offset, vtp_offset
) -> np.ndarray:
    t_rise, t_fall = kernel.delays(grid, grid.dvtn + vtn_offset, grid.dvtp + vtp_offset)
    return stages * (t_rise + t_fall)


def ring_period_batch(
    stage: StageModel,
    stages: int,
    technology: Technology,
    grid: EnvironmentGrid,
    vtn_offset=0.0,
    vtp_offset=0.0,
) -> np.ndarray:
    """Oscillation periods of a ring design over a grid.

    ``vtn_offset`` / ``vtp_offset`` may be arrays — this is how a whole
    *population* of rings (one frozen mismatch offset per die) evaluates in
    a single call.
    """
    return _period(
        design_kernel(stage, technology), stages, grid, vtn_offset, vtp_offset
    )


def ring_frequency_batch(
    stage: StageModel,
    stages: int,
    technology: Technology,
    grid: EnvironmentGrid,
    vtn_offset=0.0,
    vtp_offset=0.0,
) -> np.ndarray:
    """Oscillation frequencies of a ring design over a grid, hertz."""
    return 1.0 / ring_period_batch(
        stage, stages, technology, grid, vtn_offset, vtp_offset
    )


def oscillator_period_batch(osc: RingOscillator, grid: EnvironmentGrid) -> np.ndarray:
    """Array twin of :meth:`RingOscillator.period` over a grid."""
    return _period(ring_kernel(osc), osc.stages, grid, osc.vtn_offset, osc.vtp_offset)


def oscillator_frequency_batch(osc: RingOscillator, grid: EnvironmentGrid) -> np.ndarray:
    """Array twin of :meth:`RingOscillator.frequency` over a grid."""
    return 1.0 / oscillator_period_batch(osc, grid)


def oscillator_power_batch(
    osc: RingOscillator, grid: EnvironmentGrid, frequency=None
) -> np.ndarray:
    """Array twin of :meth:`RingOscillator.power` over a grid."""
    if frequency is None:
        frequency = oscillator_frequency_batch(osc, grid)
    load = ring_kernel(osc).load_cap
    return (
        _SHORT_CIRCUIT_FACTOR * osc.stages * load * grid.vdd * grid.vdd * frequency
    )


@dataclass(frozen=True)
class BankFrequenciesBatch:
    """Frequencies of the four oscillators over a grid, in hertz."""

    psro_n: np.ndarray
    psro_p: np.ndarray
    tsro: np.ndarray
    reference: np.ndarray

    @property
    def shape(self):
        return np.broadcast_shapes(
            np.shape(self.psro_n),
            np.shape(self.psro_p),
            np.shape(self.tsro),
            np.shape(self.reference),
        )

    def at(self, index) -> BankFrequencies:
        """The scalar :class:`BankFrequencies` at a grid index."""
        shape = self.shape
        return BankFrequencies(
            psro_n=float(np.broadcast_to(self.psro_n, shape)[index]),
            psro_p=float(np.broadcast_to(self.psro_p, shape)[index]),
            tsro=float(np.broadcast_to(self.tsro, shape)[index]),
            reference=float(np.broadcast_to(self.reference, shape)[index]),
        )


def bank_frequencies_batch(
    bank: OscillatorBank, grid: EnvironmentGrid
) -> BankFrequenciesBatch:
    """Array twin of :meth:`OscillatorBank.frequencies` over a grid."""
    return BankFrequenciesBatch(
        psro_n=oscillator_frequency_batch(bank.psro_n, grid),
        psro_p=oscillator_frequency_batch(bank.psro_p, grid),
        tsro=oscillator_frequency_batch(bank.tsro, grid),
        reference=oscillator_frequency_batch(bank.reference, grid),
    )
