"""Ratio-metric dual-RO thermometer.

A popular zero-calibration improvement over the raw TSRO: divide the TSRO
frequency by a balanced reference ring measured in the same conversion.
Global process shifts move both rings the same direction, so the ratio
cancels part of the process error — but only part, because the TSRO's
weak-inversion threshold sensitivity (~1/(n U_T) per volt) is an order of
magnitude steeper than the reference ring's strong-inversion one.  The
residual lands between the uncalibrated sensor and the paper's
self-calibrated scheme, which is exactly the point of carrying it in the
comparison (experiment R-T2).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.batch.model import RANGE_GUARD_K
from repro.circuits.oscillator_bank import build_oscillator_bank, environment_for_die
from repro.circuits.ring_oscillator import Environment
from repro.config import SensorConfig
from repro.core.sensing_model import SensingModel
from repro.device.technology import Technology
from repro.readout.counter import PeriodTimer
from repro.circuits.digital import WindowCounter
from repro.units import celsius_to_kelvin, kelvin_to_celsius
from repro.variation.montecarlo import DieSample


class RatioSensor:
    """TSRO / reference-RO ratio thermometer.

    Args:
        technology: Technology the sensor is manufactured in.
        config: Sensor design parameters; ``None`` uses the reference design.
        die: Monte-Carlo die this instance sits on (``None`` = typical).
        location: Sensor site on the die, metres.
        sensing_model: Shared design-time model (typical ratio curve).
        seed: Measurement-noise seed.
    """

    def __init__(
        self,
        technology: Technology,
        config: Optional[SensorConfig] = None,
        die: Optional[DieSample] = None,
        location: Tuple[float, float] = (2.5e-3, 2.5e-3),
        sensing_model: Optional[SensingModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.technology = technology
        self.config = config if config is not None else SensorConfig()
        self.die = die
        self.location = location
        self.bank = build_oscillator_bank(
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
        self._timer = PeriodTimer(
            periods=self.config.tsro_periods,
            ref_clock_hz=self.config.ref_clock_hz,
            bits=self.config.tsro_counter_bits,
        )
        self._ref_counter = WindowCounter(
            window=self.config.psro_window, bits=self.config.psro_counter_bits + 4
        )
        if seed is None:
            seed = 4 if die is None else die.mismatch_seed ^ 0x7A71
        self._rng = np.random.default_rng(seed)

    def _environment(self, temp_k: float, vdd: Optional[float]) -> Environment:
        vdd = self.technology.vdd if vdd is None else vdd
        if self.die is None:
            return Environment(temp_k=temp_k, vdd=vdd)
        return environment_for_die(self.die, self.location, temp_k, vdd)

    def _model_ratio(self, temp_k: float) -> float:
        env = self.model.environment(0.0, 0.0, temp_k)
        return self.model.bank.tsro.frequency(env) / self.model.bank.reference.frequency(
            env
        )

    def read_temperature(
        self, temp_c: float, vdd: Optional[float] = None, deterministic: bool = False
    ) -> float:
        """One ratio conversion, inverted on the typical ratio curve."""
        env = self._environment(celsius_to_kelvin(temp_c), vdd)
        rng = None if deterministic else self._rng

        count_t = self._timer.count(self.bank.tsro.frequency(env), rng)
        f_t_hat = self._timer.frequency_from_count(count_t)
        count_ref = self._ref_counter.count(self.bank.reference.frequency(env), rng)
        f_ref_hat = self._ref_counter.frequency_from_count(count_ref)
        measured_ratio = f_t_hat / f_ref_hat

        lo = celsius_to_kelvin(self.config.temp_min_c) - RANGE_GUARD_K
        hi = celsius_to_kelvin(self.config.temp_max_c) + RANGE_GUARD_K

        def residual(temp_k: float) -> float:
            return self._model_ratio(temp_k) - measured_ratio

        if residual(lo) > 0.0:
            return kelvin_to_celsius(lo)
        if residual(hi) < 0.0:
            return kelvin_to_celsius(hi)
        temp_k = float(optimize.brentq(residual, lo, hi, xtol=1e-4))
        return kelvin_to_celsius(temp_k)
