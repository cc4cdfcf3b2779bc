"""The top-level PT-sensor macro.

:class:`PTSensor` composes everything the paper's chip contains — the
oscillator bank (with this die's frozen mismatch), the counters, the
self-calibration engine and the energy accounting — into the object a user
instantiates once per die/tier and then reads like an instrument.

The physical world enters through the ``temp_c``/``vdd`` arguments of
:meth:`PTSensor.read` (or a thermal-solver-supplied environment via
:meth:`PTSensor.read_environment`); everything downstream of the oscillator
frequencies is exactly what the silicon would compute from its own counter
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import telemetry
from repro.circuits.digital import WindowCounter
from repro.faults.runtime import active_injector
from repro.circuits.oscillator_bank import (
    OscillatorBank,
    build_oscillator_bank,
    environment_for_die,
)
from repro.circuits.ring_oscillator import Environment
from repro.config import SensorConfig
from repro.core.calibration import CalibrationState, SelfCalibrationEngine
from repro.core.decoupler import ProcessLut
from repro.core.sensing_model import SensingModel
from repro.device.technology import Technology
from repro.readout.counter import PeriodTimer
from repro.readout.energy import (
    ConversionEnergy,
    conversion_energy_from_frequencies,
    conversion_frequencies,
)
from repro.readout.interface import SensorFrame, encode_frame
from repro.units import celsius_to_kelvin, kelvin_to_celsius
from repro.variation.montecarlo import DieSample

_CONVERSIONS = telemetry.counter(
    "core.conversions", unit="conversions", help="Full PT conversions executed"
)
_CONVERGENCE_FAILURES = telemetry.counter(
    "core.convergence_failures",
    unit="conversions",
    help="Conversions whose self-calibration did not converge",
)
_CALIBRATION_ROUNDS = telemetry.histogram(
    "core.calibration_rounds",
    unit="rounds",
    help="Self-calibration rounds used per conversion",
)
_CONVERSION_ENERGY = telemetry.histogram(
    "core.conversion_energy_pj", unit="pJ", help="Energy per full conversion"
)


@dataclass(frozen=True)
class SensorReading:
    """One complete PT conversion result.

    Attributes:
        temperature_c: Estimated junction temperature, Celsius.
        dvtn: Extracted NMOS threshold shift, volts.
        dvtp: Extracted PMOS threshold-magnitude shift, volts.
        counts_n: PSRO-N window count.
        counts_p: PSRO-P window count.
        counts_ref: Reference-clock count of the TSRO period timer.
        energy: Per-block energy breakdown of the conversion.
        conversion_time: Wall-clock duration of the conversion, seconds.
        rounds_used: Self-calibration rounds executed.
        converged: Whether self-calibration converged.
    """

    temperature_c: float
    dvtn: float
    dvtp: float
    counts_n: int
    counts_p: int
    counts_ref: int
    energy: ConversionEnergy
    conversion_time: float
    rounds_used: int
    converged: bool

    @property
    def temperature_k(self) -> float:
        """Estimated junction temperature in kelvin."""
        return celsius_to_kelvin(self.temperature_c)


class PTSensor:
    """One self-calibrated process-temperature sensor macro.

    Args:
        technology: Technology the sensor is manufactured in.
        config: Design parameters; ``None`` uses the reference design.
        die: Monte-Carlo die this instance is manufactured on; ``None``
            instantiates the typical (mismatch-free) sensor.
        location: Sensor site coordinates on the die, metres.
        die_id: Tier/die identifier carried in the output frame.
        sensing_model: Shared design-time model; built on demand.  Pass one
            explicitly when constructing many sensors of the same design —
            the model (and its LUT) is per-design, not per-die.
        lut: Shared process LUT; built on demand from the sensing model.
        seed: Seed of the sensor's private measurement-noise stream
            (counter phase randomness).  Derived from the die's mismatch
            seed when a die is given, so populations stay reproducible.
    """

    def __init__(
        self,
        technology: Technology,
        config: Optional[SensorConfig] = None,
        die: Optional[DieSample] = None,
        location: Tuple[float, float] = (2.5e-3, 2.5e-3),
        die_id: int = 0,
        sensing_model: Optional[SensingModel] = None,
        lut: Optional[ProcessLut] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.technology = technology
        self.config = config if config is not None else SensorConfig()
        self.die = die
        self.location = location
        self.die_id = die_id

        self.bank: OscillatorBank = build_oscillator_bank(
            technology,
            die=die,
            psro_stages=self.config.psro_stages,
            tsro_stages=self.config.tsro_stages,
        )
        self.model = (
            sensing_model
            if sensing_model is not None
            else SensingModel(technology, self.config)
        )
        self.lut = lut if lut is not None else ProcessLut.build(self.model)
        self.engine = SelfCalibrationEngine(self.model, lut=self.lut)

        self._counter_n = WindowCounter(
            window=self.config.psro_window, bits=self.config.psro_counter_bits
        )
        self._counter_p = WindowCounter(
            window=self.config.psro_window, bits=self.config.psro_counter_bits
        )
        self._timer_t = PeriodTimer(
            periods=self.config.tsro_periods,
            ref_clock_hz=self.config.ref_clock_hz,
            bits=self.config.tsro_counter_bits,
        )

        if seed is None:
            seed = 1 if die is None else die.mismatch_seed ^ 0x5EED
        self._rng = np.random.default_rng(seed)

    def physical_environment(self, temp_k: float, vdd: Optional[float] = None) -> Environment:
        """The true environment of this sensor site at a condition."""
        vdd = self.technology.vdd if vdd is None else vdd
        if self.die is None:
            return Environment(temp_k=temp_k, vdd=vdd)
        return environment_for_die(self.die, self.location, temp_k, vdd)

    def read(
        self,
        temp_c,
        vdd: Optional[float] = None,
        deterministic: bool = False,
        assume_vdd: Optional[float] = None,
    ) -> SensorReading:
        """Run one full conversion at a true junction temperature.

        Args:
            temp_c: True junction temperature at the sensor site, Celsius —
                or a full :class:`Environment`, which is forwarded to
                :meth:`read_environment` unchanged (the common
                environment-style call form shared with
                :class:`repro.core.tracking.TrackingSensor` and
                :func:`repro.batch.read_population`).
            vdd: True supply voltage (``None`` = nominal).
            deterministic: Suppress counter phase randomness (mid-phase
                counts); used by tests and characterisation sweeps.
            assume_vdd: Supply voltage the *calibration logic* assumes.
                ``None`` = nominal (the paper's behaviour).  In a DVFS
                system the power manager knows the setpoint and tells the
                sensor — the "dynamic voltage selection" of the group's
                2013 follow-up; pass the setpoint here to model it.

        Returns:
            The :class:`SensorReading` the macro would publish.
        """
        if isinstance(temp_c, Environment):
            if vdd is not None:
                raise ValueError(
                    "pass vdd inside the Environment, not alongside it"
                )
            env = temp_c
        else:
            env = self.physical_environment(celsius_to_kelvin(temp_c), vdd)
        return self.read_environment(
            env, deterministic=deterministic, assume_vdd=assume_vdd
        )

    def read_environment(
        self,
        env: Environment,
        deterministic: bool = False,
        assume_vdd: Optional[float] = None,
    ) -> SensorReading:
        """Run one full conversion under an explicit physical environment.

        This is the entry point for thermal-solver-driven simulation: the
        solver computes the junction temperature field and hands each sensor
        its local environment.

        When a fault plan is active (:func:`repro.faults.inject`), faults
        targeting this sensor's ``die_id`` apply here: supply droop and
        thermal runaway perturb the physical environment before the
        oscillators see it, and stuck/drifting-output faults override the
        published reading afterwards.
        """
        injector = active_injector()
        if injector is not None:
            env = injector.perturb_environment(self.die_id, env)
        rng = None if deterministic else self._rng

        with telemetry.span(
            "core.conversion", die_id=self.die_id, temp_k=env.temp_k, vdd=env.vdd
        ) as trace:
            frequencies = conversion_frequencies(self.bank, env)
            counts_n = self._counter_n.count(frequencies.psro_n, rng)
            counts_p = self._counter_p.count(frequencies.psro_p, rng)
            counts_ref = self._timer_t.count(frequencies.tsro, rng)

            f_n_hat = self._counter_n.frequency_from_count(counts_n)
            f_p_hat = self._counter_p.frequency_from_count(counts_p)
            f_t_hat = self._timer_t.frequency_from_count(counts_ref)

            # Unless told the DVFS setpoint (assume_vdd), the sensor does not
            # know the true supply and assumes nominal; droop then shows up as
            # residual error (experiment R-F8), exactly as in the silicon.
            state: CalibrationState = self.engine.run(
                f_n_hat, f_p_hat, f_t_hat, vdd=assume_vdd
            )

            energy = conversion_energy_from_frequencies(
                self.bank, env, self.config, frequencies
            )
            conversion_time = self.config.conversion_time(frequencies.tsro)

            _CONVERSIONS.inc()
            _CALIBRATION_ROUNDS.observe(state.rounds_used)
            _CONVERSION_ENERGY.observe(energy.total * 1e12)
            if not state.converged:
                _CONVERGENCE_FAILURES.inc()
            trace.set(
                rounds_used=state.rounds_used,
                converged=state.converged,
                energy_pj=energy.total * 1e12,
            )

            reading = SensorReading(
                temperature_c=kelvin_to_celsius(state.temp_k),
                dvtn=state.dvtn,
                dvtp=state.dvtp,
                counts_n=counts_n,
                counts_p=counts_p,
                counts_ref=counts_ref,
                energy=energy,
                conversion_time=conversion_time,
                rounds_used=state.rounds_used,
                converged=state.converged,
            )
            if injector is not None:
                reading = injector.perturb_reading(self.die_id, reading)
            return reading

    def frame(self, reading: SensorReading) -> int:
        """Encode a reading into the 40-bit TSV-bus frame."""
        return encode_frame(
            SensorFrame(
                die_id=self.die_id,
                dvtn=reading.dvtn,
                dvtp=reading.dvtp,
                temperature_c=reading.temperature_c,
                valid=reading.converged,
            )
        )

    def self_test(self, temp_c: float, vdd: Optional[float] = None):
        """Run the power-on BIST: two back-to-back measurements, judged.

        Returns the :class:`repro.readout.SelfTestReport`; a monitoring
        network should refuse readings from a macro whose BIST fails.
        """
        from repro.readout.selftest import SensorSelfTest

        env = self.physical_environment(celsius_to_kelvin(temp_c), vdd)

        def measure():
            freqs = self.bank.frequencies(env)
            from repro.circuits.oscillator_bank import BankFrequencies

            return BankFrequencies(
                psro_n=self._counter_n.frequency_from_count(
                    self._counter_n.count(freqs.psro_n, self._rng)
                ),
                psro_p=self._counter_p.frequency_from_count(
                    self._counter_p.count(freqs.psro_p, self._rng)
                ),
                tsro=self._timer_t.frequency_from_count(
                    self._timer_t.count(freqs.tsro, self._rng)
                ),
                reference=freqs.reference,
            )

        return SensorSelfTest(self.model).run(measure(), measure())

    def design_key(self) -> Tuple:
        """Hashable identity of this sensor's *design* (not its die).

        Two sensors share a design when they were taped out identically —
        same configuration, technology and per-ring stage models — even
        though each instance carries its own frozen mismatch.  The batch
        engine (:func:`repro.batch.read_population`,
        :func:`repro.batch.read_paired`) and the serving layer
        (:mod:`repro.serve`) only coalesce sensors whose design keys match.
        """
        return (
            self.config,
            self.technology,
            self.bank.psro_n.stage,
            self.bank.psro_p.stage,
            self.bank.tsro.stage,
        )

    def true_process_shifts(self) -> Tuple[float, float]:
        """Ground-truth systematic (dV_tn, dV_tp) at this sensor site.

        What the extraction *should* report; experiments compare readings
        against this.  Typical sensors return (0, 0).
        """
        if self.die is None:
            return 0.0, 0.0
        return self.die.vt_shifts_at(*self.location)
