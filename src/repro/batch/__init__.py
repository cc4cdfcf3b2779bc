"""Vectorised batch-evaluation engine.

The scalar model stack (``device`` → ``circuits`` → ``core``) evaluates one
operating point per call, which is the right shape for understanding one
conversion and exactly the wrong shape for population studies: a 200-die
accuracy histogram at 9 temperatures re-enters the Python device model
tens of thousands of times.  This package provides *array twins* of each
layer — same formulas, NumPy semantics — so whole populations evaluate in
a handful of ufunc passes:

* :class:`EnvironmentGrid` — broadcastable grids of operating points;
* :mod:`~repro.batch.device` — EKV drain currents over grids;
* :mod:`~repro.batch.stages` — the four stage-delay kernels (extensible
  via :func:`register_delay_kernel`);
* :mod:`~repro.batch.bank` — ring/bank frequencies over grids;
* :mod:`~repro.batch.model` — the self-calibration algorithm itself,
  written once over lanes (Newton extraction, temperature inversion, the
  round loop); the scalar ``repro.core`` entry points are its one-lane
  calls;
* :func:`read_population` — whole-die-population conversions, bit-faithful
  to the scalar ``PTSensor.read`` loops (same rng streams, same
  quantisation);
* :func:`read_paired` — flat one-lane-per-request conversions for
  coalesced request batches (the :mod:`repro.serve` hot path), equally
  bit-faithful to the sequential scalar request loop.

Golden equivalence against the scalar physics model, and bit identity
between the one-lane and many-lane paths, are pinned by
``tests/test_batch_engine.py``.
"""

from repro.batch.bank import (
    BankFrequenciesBatch,
    bank_frequencies_batch,
    oscillator_frequency_batch,
    oscillator_period_batch,
    oscillator_power_batch,
    ring_frequency_batch,
    ring_period_batch,
)
from repro.batch.device import (
    drain_current_batch,
    series_stack_current_batch,
    specific_current_batch,
    thermal_voltage_batch,
    threshold_voltage_batch,
)
from repro.batch.energy import (
    ConversionEnergyBatch,
    conversion_energy_batch,
    conversion_time_batch,
)
from repro.batch.grid import EnvironmentGrid
from repro.batch.paired import PairedReadings, paired_grid, read_paired
from repro.batch.model import (
    BatchCalibration,
    calibrate_batch,
    estimate_temperature_batch,
    extract_process_batch,
    process_frequencies_batch,
    tsro_frequency_batch,
)
from repro.batch.population import (
    PopulationReadings,
    population_bank_frequencies,
    population_grid,
    read_population,
    read_uncalibrated_population,
)
from repro.batch.stages import register_delay_kernel, stage_delays_batch

__all__ = [
    "BankFrequenciesBatch",
    "BatchCalibration",
    "ConversionEnergyBatch",
    "EnvironmentGrid",
    "PairedReadings",
    "PopulationReadings",
    "bank_frequencies_batch",
    "calibrate_batch",
    "conversion_energy_batch",
    "conversion_time_batch",
    "drain_current_batch",
    "estimate_temperature_batch",
    "extract_process_batch",
    "oscillator_frequency_batch",
    "oscillator_period_batch",
    "oscillator_power_batch",
    "paired_grid",
    "population_bank_frequencies",
    "population_grid",
    "process_frequencies_batch",
    "read_paired",
    "read_population",
    "read_uncalibrated_population",
    "register_delay_kernel",
    "ring_frequency_batch",
    "ring_period_batch",
    "series_stack_current_batch",
    "specific_current_batch",
    "stage_delays_batch",
    "thermal_voltage_batch",
    "threshold_voltage_batch",
    "tsro_frequency_batch",
]
