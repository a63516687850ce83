"""Tests for device-family calibration."""

import pytest

from repro.core import Watermark
from repro.device import make_mcu
from repro.engine import calibrate_family


def factory(seed):
    return make_mcu(seed=seed, n_segments=1)


@pytest.fixture(scope="module")
def calibration():
    import numpy as np

    return calibrate_family(
        factory,
        n_pe=40_000,
        n_replicas=7,
        watermark=Watermark.ascii_uppercase(
            64, np.random.default_rng(0)
        ),
        t_grid_us=np.arange(18.0, 60.0, 1.0),
    ).calibration


class TestCalibrateFamily:
    def test_window_brackets_operating_point(self, calibration):
        assert (
            calibration.window_lo_us
            <= calibration.t_pew_us
            <= calibration.window_hi_us
        )

    def test_window_in_physical_range(self, calibration):
        assert 18.0 <= calibration.t_pew_us <= 60.0

    def test_expected_ber_is_low(self, calibration):
        assert calibration.expected_ber < 0.1

    def test_asymmetry_measured(self, calibration):
        assert calibration.asymmetry is not None
        assert 0.0 <= calibration.asymmetry.p_bad_reads_good <= 1.0

    def test_safe_point_right_of_minimum(self):
        import numpy as np

        grid = np.arange(18.0, 60.0, 2.0)
        wm = Watermark.ascii_uppercase(64, np.random.default_rng(0))
        at_min = calibrate_family(
            factory, n_pe=40_000, n_replicas=7, watermark=wm,
            t_grid_us=grid, operating_point="min",
        ).calibration
        safe = calibrate_family(
            factory, n_pe=40_000, n_replicas=7, watermark=wm,
            t_grid_us=grid, operating_point="safe",
        ).calibration
        assert safe.t_pew_us >= at_min.t_pew_us

    def test_safe_point_errors_are_asymmetric(self, calibration):
        """At the published operating point, stressed-cell misreads
        dominate — the Fig. 10 observation."""
        assert calibration.asymmetry.ratio > 2.0

    def test_model_recorded(self, calibration):
        assert calibration.model == "MSP430F5438"

    def test_window_width_property(self, calibration):
        assert calibration.window_width_us == pytest.approx(
            calibration.window_hi_us - calibration.window_lo_us
        )

    def test_bad_operating_point_rejected(self):
        with pytest.raises(ValueError, match="operating_point"):
            calibrate_family(factory, n_pe=1000, operating_point="left")

    def test_zero_chips_rejected(self):
        with pytest.raises(ValueError, match="n_chips"):
            calibrate_family(factory, n_pe=1000, n_chips=0)


class TestMultiChipCalibration:
    def test_averages_across_chips(self):
        import numpy as np

        grid = np.arange(20.0, 40.0, 2.0)
        wm = Watermark.ascii_uppercase(64, np.random.default_rng(3))
        single = calibrate_family(
            factory, n_pe=40_000, n_replicas=3, watermark=wm,
            t_grid_us=grid, n_chips=1,
        ).calibration
        multi = calibrate_family(
            factory, n_pe=40_000, n_replicas=3, watermark=wm,
            t_grid_us=grid, n_chips=3,
        ).calibration
        # Both land in the same physical window.
        assert abs(multi.t_pew_us - single.t_pew_us) <= 6.0
        assert multi.expected_ber < 0.2
