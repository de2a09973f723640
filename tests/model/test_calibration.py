"""Tests for simulator-to-model calibration."""

import pytest

from repro.model.calibration import calibrate_prefetch_curve
from repro.model.costs import DEFAULT_PREFETCH_RATE_CURVE


class TestCalibration:
    @pytest.fixture(scope="class")
    def curve(self):
        # Small CE set and short windows: this is a smoke-level calibration.
        return calibrate_prefetch_curve(ce_counts=(1, 8, 16), blocks=8)

    def test_rates_are_physical(self, curve):
        for count, rate in curve.items():
            assert 0.0 < rate <= 1.0, count

    def test_contention_lowers_the_rate(self, curve):
        assert curve[16] < curve[1]

    def test_matches_default_curve_shape(self, curve):
        """The shipped default curve was produced by this procedure; a
        fresh calibration should land in the same neighbourhood."""
        for count in (1, 8, 16):
            assert curve[count] == pytest.approx(
                DEFAULT_PREFETCH_RATE_CURVE[count], abs=0.15
            )

