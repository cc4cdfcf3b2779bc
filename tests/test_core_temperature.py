"""Tests for the process-corrected temperature estimator."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import TemperatureRangeError
from repro.core.sensing_model import SensingModel
from repro.core.temperature import estimate_temperature, estimate_temperature_clamped
from repro.device.technology import nominal_65nm
from repro.units import celsius_to_kelvin


@pytest.fixture(scope="module")
def model():
    return SensingModel(nominal_65nm())


class TestEstimate:
    def test_exact_round_trip_typical(self, model):
        truth = celsius_to_kelvin(65.0)
        f_t = model.tsro_frequency(0.0, 0.0, truth)
        assert estimate_temperature(model, f_t, 0.0, 0.0) == pytest.approx(
            truth, abs=1e-3
        )

    def test_round_trip_on_skewed_die(self, model):
        truth = celsius_to_kelvin(-10.0)
        f_t = model.tsro_frequency(0.03, -0.02, truth)
        assert estimate_temperature(model, f_t, 0.03, -0.02) == pytest.approx(
            truth, abs=1e-3
        )

    def test_process_correction_matters(self, model):
        """Feeding the wrong process point biases the estimate by degrees."""
        truth = celsius_to_kelvin(65.0)
        f_t = model.tsro_frequency(0.03, 0.03, truth)
        wrong = estimate_temperature_clamped(model, f_t, 0.0, 0.0)
        assert abs(wrong - truth) > 3.0

    def test_out_of_range_raises(self, model):
        f_hot = model.tsro_frequency(0.0, 0.0, celsius_to_kelvin(200.0))
        with pytest.raises(TemperatureRangeError):
            estimate_temperature(model, f_hot, 0.0, 0.0)

    def test_rejects_nonpositive_frequency(self, model):
        with pytest.raises(ValueError):
            estimate_temperature(model, 0.0, 0.0, 0.0)

    def test_rejects_nan_frequency(self, model):
        """NaN compares false both ways; it must not bisect to a range edge."""
        with pytest.raises(ValueError):
            estimate_temperature(model, float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            estimate_temperature_clamped(model, float("nan"), 0.0, 0.0)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(temp_c=st.floats(min_value=-40.0, max_value=125.0))
    def test_round_trip_property(self, model, temp_c):
        truth = celsius_to_kelvin(temp_c)
        f_t = model.tsro_frequency(0.0, 0.0, truth)
        assert estimate_temperature(model, f_t, 0.0, 0.0) == pytest.approx(
            truth, abs=1e-2
        )


class TestClamped:
    def test_clamps_high(self, model):
        f_hot = model.tsro_frequency(0.0, 0.0, celsius_to_kelvin(250.0))
        est = estimate_temperature_clamped(model, f_hot, 0.0, 0.0)
        assert est == pytest.approx(celsius_to_kelvin(125.0) + 15.0)

    def test_clamps_low(self, model):
        f_cold = model.tsro_frequency(0.0, 0.0, celsius_to_kelvin(-90.0))
        est = estimate_temperature_clamped(model, f_cold, 0.0, 0.0)
        assert est == pytest.approx(celsius_to_kelvin(-40.0) - 15.0)

    def test_passthrough_in_range(self, model):
        truth = celsius_to_kelvin(30.0)
        f_t = model.tsro_frequency(0.0, 0.0, truth)
        assert estimate_temperature_clamped(model, f_t, 0.0, 0.0) == pytest.approx(
            truth, abs=1e-3
        )
