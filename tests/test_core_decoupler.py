"""Tests for the process decoupler (LUT + Newton inversion)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.decoupler import ProcessLut, extract_process
from repro.core.errors import ExtractionDivergedError
from repro.core.sensing_model import SensingModel
from repro.device.technology import nominal_65nm


@pytest.fixture(scope="module")
def model():
    return SensingModel(nominal_65nm())


@pytest.fixture(scope="module")
def lut(model):
    return ProcessLut.build(model)


class TestProcessLut:
    def test_grid_shape(self, model):
        lut = ProcessLut.build(model, points=5)
        assert lut.f_n_grid.shape == (5, 5)
        assert lut.dvtn_axis.size == 5

    def test_rejects_tiny_grid(self, model):
        with pytest.raises(ValueError):
            ProcessLut.build(model, points=1)

    def test_seed_recovers_grid_points(self, model, lut):
        """Seeding with a grid point's own frequencies returns that point."""
        i, j = 2, 6
        dvtn, dvtp = lut.dvtn_axis[i], lut.dvtp_axis[j]
        seed = lut.seed(lut.f_n_grid[i, j], lut.f_p_grid[i, j])
        assert seed[0] == pytest.approx(dvtn)
        assert seed[1] == pytest.approx(dvtp)

    def test_seed_close_for_off_grid_points(self, model, lut):
        f_n, f_p = model.process_frequencies(0.013, -0.017, 300.0)
        seed = lut.seed(f_n, f_p)
        spacing = lut.dvtn_axis[1] - lut.dvtn_axis[0]
        assert abs(seed[0] - 0.013) <= spacing
        assert abs(seed[1] + 0.017) <= spacing


class TestExtraction:
    def test_exact_round_trip(self, model, lut):
        f_n, f_p = model.process_frequencies(0.025, -0.018, 320.0)
        dvtn, dvtp = extract_process(model, f_n, f_p, 320.0, lut=lut)
        assert dvtn == pytest.approx(0.025, abs=1e-5)
        assert dvtp == pytest.approx(-0.018, abs=1e-5)

    def test_works_without_lut(self, model):
        f_n, f_p = model.process_frequencies(0.030, 0.030, 300.0)
        dvtn, dvtp = extract_process(model, f_n, f_p, 300.0, lut=None)
        assert dvtn == pytest.approx(0.030, abs=1e-5)
        assert dvtp == pytest.approx(0.030, abs=1e-5)

    def test_rejects_nonpositive_frequencies(self, model, lut):
        with pytest.raises(ValueError):
            extract_process(model, -1.0, 1e8, 300.0, lut=lut)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_frequency_diverges_instead_of_settling(self, model, lut):
        """A NaN residual is never 'below 1 Hz': Newton must not stop on it."""
        _, f_p = model.process_frequencies(0.01, 0.01, 300.0)
        with pytest.raises(ExtractionDivergedError):
            extract_process(model, float("nan"), f_p, 300.0, lut=lut)

    def test_diverges_outside_box(self, model, lut):
        """Frequencies of a die far beyond the box must raise, not lie."""
        f_n, f_p = model.process_frequencies(0.079, 0.079, 300.0)
        # Pretend the ring runs at a quarter of that: no in-box die does.
        with pytest.raises(ExtractionDivergedError):
            extract_process(model, f_n * 0.25, f_p * 0.25, 300.0, lut=lut)

    def test_wrong_temperature_guess_biases_little(self, model, lut):
        """ZTC bias at work: a 30 K wrong guess moves the result ~1 mV."""
        f_n, f_p = model.process_frequencies(0.010, 0.010, 330.0)
        dvtn, dvtp = extract_process(model, f_n, f_p, 300.0, lut=lut)
        assert dvtn == pytest.approx(0.010, abs=2e-3)
        assert dvtp == pytest.approx(0.010, abs=2e-3)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dvtn=st.floats(min_value=-0.05, max_value=0.05),
        dvtp=st.floats(min_value=-0.05, max_value=0.05),
        temp=st.floats(min_value=240.0, max_value=390.0),
    )
    def test_round_trip_property(self, model, lut, dvtn, dvtp, temp):
        f_n, f_p = model.process_frequencies(dvtn, dvtp, temp)
        got_n, got_p = extract_process(model, f_n, f_p, temp, lut=lut)
        assert got_n == pytest.approx(dvtn, abs=1e-4)
        assert got_p == pytest.approx(dvtp, abs=1e-4)

    def test_lut_and_newton_agree(self, model, lut):
        f_n, f_p = model.process_frequencies(-0.022, 0.014, 300.0)
        with_lut = extract_process(model, f_n, f_p, 300.0, lut=lut)
        without = extract_process(model, f_n, f_p, 300.0, lut=None)
        assert with_lut[0] == pytest.approx(without[0], abs=1e-6)
        assert with_lut[1] == pytest.approx(without[1], abs=1e-6)
