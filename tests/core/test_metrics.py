"""Tests for repro.core.metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import (
    CodeResult,
    Ensemble,
    efficiency,
    harmonic_mean,
    mflops,
    speedup,
)


class TestSpeedup:
    def test_basic_ratio(self):
        assert speedup(100.0, 25.0) == 4.0

    def test_slowdown_is_below_one(self):
        assert speedup(10.0, 20.0) == 0.5

    def test_rejects_zero_serial(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)

    def test_rejects_negative_parallel(self):
        with pytest.raises(ValueError):
            speedup(1.0, -1.0)

    @given(st.floats(0.001, 1e6), st.floats(0.001, 1e6))
    def test_speedup_times_parallel_recovers_serial(self, serial, parallel):
        assert speedup(serial, parallel) * parallel == pytest.approx(serial)


class TestEfficiency:
    def test_perfect_efficiency(self):
        assert efficiency(32.0, 32) == 1.0

    def test_half_efficiency(self):
        assert efficiency(16.0, 32) == 0.5

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            efficiency(1.0, 0)

    def test_rejects_negative_speedup(self):
        with pytest.raises(ValueError):
            efficiency(-1.0, 8)


class TestMflops:
    def test_rate(self):
        assert mflops(2e8, 2.0) == 100.0

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            mflops(1e6, 0.0)

    def test_zero_flops_is_zero_rate(self):
        assert mflops(0.0, 1.0) == 0.0


class TestHarmonicMean:
    def test_equal_values(self):
        assert harmonic_mean([5.0, 5.0, 5.0]) == pytest.approx(5.0)

    def test_known_value(self):
        # HM of 1 and 3 is 1.5
        assert harmonic_mean([1.0, 3.0]) == pytest.approx(1.5)

    def test_dominated_by_minimum(self):
        assert harmonic_mean([0.1, 100.0, 100.0]) < 0.31

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])

    @given(st.lists(st.floats(0.01, 1e4), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        hm = harmonic_mean(values)
        assert min(values) - 1e-9 <= hm <= max(values) + 1e-9


def _result(code="TRFD", serial=220.0, parallel=21.0, flops=1.7e9,
            machine="cedar", processors=32):
    return CodeResult(
        code=code, machine=machine, processors=processors,
        serial_seconds=serial, parallel_seconds=parallel, flop_count=flops,
    )


class TestCodeResult:
    def test_speedup_property(self):
        assert _result().speedup == pytest.approx(220.0 / 21.0)

    def test_efficiency_property(self):
        assert _result().efficiency == pytest.approx(220.0 / 21.0 / 32)

    def test_mflops_property(self):
        assert _result().mflops == pytest.approx(1.7e9 / 21.0 / 1e6)


class TestEnsemble:
    def test_add_and_views(self):
        ensemble = Ensemble(machine="cedar", processors=32)
        ensemble.add(_result("A"))
        ensemble.add(_result("B", parallel=42.0))
        assert ensemble.codes == ["A", "B"]
        assert len(ensemble) == 2
        assert ensemble.rates()["B"] == pytest.approx(1.7e9 / 42.0 / 1e6)
        assert ensemble.speedups()["A"] == pytest.approx(220.0 / 21.0)

    def test_rejects_wrong_machine(self):
        ensemble = Ensemble(machine="cedar", processors=32)
        with pytest.raises(ValueError):
            ensemble.add(_result(machine="cray"))

    def test_rejects_wrong_processor_count(self):
        ensemble = Ensemble(machine="cedar", processors=32)
        with pytest.raises(ValueError):
            ensemble.add(_result(processors=8))

    def test_harmonic_mean_mflops(self):
        ensemble = Ensemble(machine="cedar", processors=32)
        ensemble.add(_result("A"))
        ensemble.add(_result("B"))
        assert ensemble.harmonic_mean_mflops() == pytest.approx(
            _result().mflops
        )


class TestEdgeCases:
    """Degenerate inputs: zero/negative times, empty sequences."""

    def test_speedup_rejects_negative_serial(self):
        with pytest.raises(ValueError, match="serial"):
            speedup(-100.0, 25.0)

    def test_speedup_rejects_zero_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            speedup(100.0, 0.0)

    def test_mflops_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            mflops(1e6, -2.0)

    def test_mflops_rejects_negative_flops(self):
        with pytest.raises(ValueError, match="flop"):
            mflops(-1.0, 2.0)

    def test_efficiency_of_zero_speedup(self):
        assert efficiency(0.0, 8) == 0.0

    def test_efficiency_rejects_negative_processors(self):
        with pytest.raises(ValueError, match="processor"):
            efficiency(1.0, -8)

    def test_harmonic_mean_single_value(self):
        assert harmonic_mean([7.0]) == pytest.approx(7.0)

    def test_harmonic_mean_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            harmonic_mean([1.0, -3.0])

    def test_harmonic_mean_accepts_tuple(self):
        assert harmonic_mean((1.0, 3.0)) == pytest.approx(1.5)

    @given(st.lists(st.floats(0.01, 1e4), min_size=1, max_size=20))
    def test_harmonic_at_most_arithmetic(self, values):
        assert harmonic_mean(values) <= sum(values) / len(values) + 1e-9

    def test_code_result_zero_parallel_raises_on_access(self):
        broken = CodeResult(
            code="X", machine="cedar", processors=32,
            serial_seconds=100.0, parallel_seconds=0.0,
        )
        with pytest.raises(ValueError):
            broken.speedup
        with pytest.raises(ValueError):
            broken.mflops

    def test_empty_ensemble_views(self):
        ensemble = Ensemble(machine="cedar", processors=32)
        assert len(ensemble) == 0
        assert ensemble.codes == []
        assert ensemble.rates() == {}
        with pytest.raises(ValueError):
            ensemble.harmonic_mean_mflops()
