"""Per-conversion energy accounting.

The paper's headline efficiency figure is **367.5 pJ per conversion**.  The
model reproduces it structurally: each ring burns dynamic power only during
its own measurement phase (power gating), the counters burn toggle energy
proportional to the accumulated counts, and a fixed digital overhead covers
the calibration FSM and register file.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.digital import ripple_counter_energy
from repro.circuits.oscillator_bank import BankFrequencies, OscillatorBank
from repro.circuits.ring_oscillator import Environment
from repro.config import SensorConfig


@dataclass(frozen=True)
class ConversionEnergy:
    """Energy breakdown of one conversion, all fields in joules."""

    psro_n: float
    psro_p: float
    tsro: float
    counters: float
    digital: float

    @property
    def total(self) -> float:
        """Total energy of the conversion."""
        return self.psro_n + self.psro_p + self.tsro + self.counters + self.digital

    def as_rows(self):
        """(label, joules) rows for reporting, largest first."""
        rows = [
            ("PSRO-N ring", self.psro_n),
            ("PSRO-P ring", self.psro_p),
            ("TSRO ring", self.tsro),
            ("counters", self.counters),
            ("digital/FSM", self.digital),
        ]
        return sorted(rows, key=lambda row: row[1], reverse=True)


def conversion_energy(
    bank: OscillatorBank, env: Environment, config: SensorConfig
) -> ConversionEnergy:
    """Energy of one full PT conversion under ``env``.

    Args:
        bank: The sensor site's oscillator bank.
        env: Physical operating environment during the conversion.
        config: Sensor design parameters (windows, overheads).

    Returns:
        The per-block energy breakdown.
    """
    return conversion_energy_from_frequencies(
        bank, env, config, conversion_frequencies(bank, env)
    )


def conversion_frequencies(bank: OscillatorBank, env: Environment) -> BankFrequencies:
    """Frequencies of the three rings a conversion powers, under ``env``.

    The reference ring is not powered during a conversion; it reads 0 Hz.
    """
    return BankFrequencies(
        psro_n=bank.psro_n.frequency(env),
        psro_p=bank.psro_p.frequency(env),
        tsro=bank.tsro.frequency(env),
        reference=0.0,
    )


def conversion_energy_from_frequencies(
    bank: OscillatorBank,
    env: Environment,
    config: SensorConfig,
    frequencies: BankFrequencies,
) -> ConversionEnergy:
    """Energy of one conversion given already-evaluated ring frequencies.

    Splitting the frequency evaluation from the energy bookkeeping lets
    callers that already hold the frequencies — window sweeps re-costing one
    operating point under many configs, or the batch engine — avoid
    re-walking the device model.
    """
    f_n = frequencies.psro_n
    f_p = frequencies.psro_p
    f_t = frequencies.tsro

    window = config.psro_window
    tsro_time = config.tsro_periods / f_t

    # energy_for_window = power * window with power = k * N * C * V^2 * f.
    e_psro_n = bank.psro_n.power_from_frequency(env, f_n) * window
    e_psro_p = bank.psro_p.power_from_frequency(env, f_p) * window
    e_tsro = bank.tsro.power_from_frequency(env, f_t) * tsro_time

    counts_n = f_n * window
    counts_p = f_p * window
    counts_ref = tsro_time * config.ref_clock_hz
    e_counters = (
        ripple_counter_energy(int(counts_n), env.vdd)
        + ripple_counter_energy(int(counts_p), env.vdd)
        + ripple_counter_energy(int(counts_ref), env.vdd)
    )

    return ConversionEnergy(
        psro_n=e_psro_n,
        psro_p=e_psro_p,
        tsro=e_tsro,
        counters=e_counters,
        digital=config.digital_overhead_energy,
    )
