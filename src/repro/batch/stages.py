"""Compiled stage kernels: each stage design's devices, sized once.

A stage's delays depend on the operating point only through the supply,
the temperature and the per-point threshold shifts and mobility scales.
Its devices — each edge's transistor at its drawn size, a series stack
reduced to its single-device equivalent — and its load capacitance are
fixed at tape-out, so :func:`compile_stage` builds them once into a
:class:`StageKernel`, which then evaluates the array twin of
:meth:`~repro.circuits.inverter.StageModel.delays` over an
:class:`~repro.batch.grid.EnvironmentGrid` through the one EKV formula,
:func:`~repro.batch.device.drain_current_batch`.

A registry maps each stage class to its compile step, so dispatch follows
the stage instance exactly as the scalar path does, and new stage
flavours plug in via :func:`register_delay_kernel`.  A ring keeps its
compiled kernel (:func:`repro.batch.bank.ring_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Type

import numpy as np

from repro.batch.device import StackedDevice
from repro.batch.grid import EnvironmentGrid
from repro.circuits.inverter import (
    BalancedStage,
    NmosSensingStage,
    PmosSensingStage,
    StageModel,
    StarvedStage,
)
from repro.device.mosfet import MosfetParams


@dataclass(frozen=True)
class Edge:
    """One switching edge of a compiled stage.

    Each edge follows the switching-charge rule of
    :mod:`repro.circuits.inverter`: ``t = C_load V_DD / (ramp * I)`` with
    ``I`` at ``V_DS = V_DD / 2``.

    Attributes:
        device: The transistor (or stack) that drives or starves the edge.
        gate: Its gate drive as a fraction of V_DD: 1 for a full-swing
            input, the bias-divider ratio for a starved edge.
        ramp: 2 for a full-strength edge (an accelerating ramp), 1 for a
            starved, constant-current one.
    """

    device: StackedDevice
    gate: float = 1.0
    ramp: float = 2.0

    @classmethod
    def driven(cls, device: MosfetParams) -> "Edge":
        """A full-strength edge: gate at V_DD."""
        return cls(StackedDevice.of(device))

    @classmethod
    def starved(cls, device: MosfetParams, bias_ratio: float, stack: int = 1) -> "Edge":
        """An edge limited by a ``stack``-deep device whose gate sits at
        ``bias_ratio * V_DD``."""
        return cls(StackedDevice.of(device, stack), gate=bias_ratio, ramp=1.0)


@dataclass(frozen=True)
class StageKernel:
    """One stage design, compiled: its two edges and its load.

    The rise edge is pulled up through PMOS and sees the PMOS threshold
    shift and mobility; the fall edge is pulled down through NMOS.

    Attributes:
        rise: The pull-up edge.
        fall: The pull-down edge.
        load_cap: Stage load capacitance, farads.
    """

    rise: Edge
    fall: Edge
    load_cap: float

    def delays(
        self, grid: EnvironmentGrid, dvtn, dvtp
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(t_rise, t_fall)`` over a grid at total per-point threshold
        shifts ``dvtn`` / ``dvtp`` (systematic plus frozen mismatch)."""
        vdd, temp_k = grid.vdd, grid.temp_k
        charge = self.load_cap * vdd
        vds = vdd / 2.0
        rise, fall = self.rise, self.fall
        i_rise = rise.device.current(
            rise.gate * vdd, vds, temp_k, dvt=dvtp, mu_scale=grid.mup_scale
        )
        i_fall = fall.device.current(
            fall.gate * vdd, vds, temp_k, dvt=dvtn, mu_scale=grid.mun_scale
        )
        return charge / (rise.ramp * i_rise), charge / (fall.ramp * i_fall)


#: A compile step: ``(stage, nmos, pmos) -> (rise, fall)`` edges, sized from
#: the technology's unit device templates.
EdgeCompiler = Callable[[StageModel, MosfetParams, MosfetParams], Tuple[Edge, Edge]]

_DELAY_KERNELS: Dict[Type[StageModel], EdgeCompiler] = {}


def register_delay_kernel(stage_type: Type[StageModel], kernel: EdgeCompiler) -> None:
    """Register the compile step of a stage class.

    ``kernel(stage, nmos, pmos)`` sizes the stage's devices from the unit
    NMOS/PMOS templates and returns its ``(rise, fall)`` :class:`Edge`
    pair.  It runs once per ring design, not once per evaluation.
    """
    _DELAY_KERNELS[stage_type] = kernel


def compile_stage(
    stage: StageModel, nmos: MosfetParams, pmos: MosfetParams, load_cap: float
) -> StageKernel:
    """The :class:`StageKernel` of a stage design (arguments as
    :func:`stage_delays_batch`).

    Raises:
        TypeError: If no compile step is registered for the exact stage
            class.
    """
    compile_edges = _DELAY_KERNELS.get(type(stage))
    if compile_edges is None:
        raise TypeError(
            f"no batch delay kernel registered for {type(stage).__name__}; "
            "register one with repro.batch.stages.register_delay_kernel"
        )
    rise, fall = compile_edges(stage, nmos, pmos)
    return StageKernel(rise=rise, fall=fall, load_cap=load_cap)


def stage_delays_batch(
    stage: StageModel,
    nmos: MosfetParams,
    pmos: MosfetParams,
    grid: EnvironmentGrid,
    dvtn,
    dvtp,
    load_cap: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(t_rise, t_fall)`` arrays of one stage over a grid.

    Compiles the stage and evaluates it once; code that evaluates a design
    repeatedly keeps its :class:`StageKernel` instead.

    Args:
        stage: The stage model instance (dispatches to its compile step).
        nmos: Unit NMOS template of the technology (unshifted).
        pmos: Unit PMOS template of the technology (unshifted).
        grid: Operating points (supplies temp/vdd/mobility scales).
        dvtn: Total per-point NMOS threshold shift (grid systematic plus the
            oscillator's frozen mismatch offset), volts.
        dvtp: Total per-point PMOS threshold-magnitude shift, volts.
        load_cap: Stage load capacitance in farads (scalar — geometry).
    """
    return compile_stage(stage, nmos, pmos, load_cap).delays(grid, dvtn, dvtp)


def _balanced_edges(stage, nmos, pmos):
    n_dev, p_dev = stage.devices(nmos, pmos)
    return Edge.driven(p_dev), Edge.driven(n_dev)


def _nmos_sensing_edges(stage, nmos, pmos):
    sense = Edge.starved(stage.sensing_device(nmos), stage.bias_ratio, stage.stack)
    return Edge.driven(pmos.scaled(width_scale=stage.pmos_units)), sense


def _pmos_sensing_edges(stage, nmos, pmos):
    sense = Edge.starved(stage.sensing_device(pmos), stage.bias_ratio, stage.stack)
    return sense, Edge.driven(nmos.scaled(width_scale=stage.nmos_units))


def _starved_edges(stage, nmos, pmos):
    footer, header = stage.limiting_devices(nmos, pmos)
    return (
        Edge.starved(header, stage.bias_ratio),
        Edge.starved(footer, stage.bias_ratio),
    )


register_delay_kernel(BalancedStage, _balanced_edges)
register_delay_kernel(NmosSensingStage, _nmos_sensing_edges)
register_delay_kernel(PmosSensingStage, _pmos_sensing_edges)
register_delay_kernel(StarvedStage, _starved_edges)
