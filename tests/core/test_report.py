"""Tests for the ASCII report helpers."""

import pytest

from repro.core.bands import Band
from repro.core.report import (
    band_summary,
    efficiency_scatter,
    format_table,
    fraction_description,
)


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(("a", "bb"), [("x", 1.25), ("yyy", 2)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2]
        assert "1.2" in text  # floats to one decimal
        assert "yyy" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a",), [("x", "y")])

    def test_none_renders_as_dash(self):
        assert "-" in format_table(("a",), [(None,)])

    def test_empty_rows_ok(self):
        text = format_table(("alpha", "beta"), [])
        assert "alpha" in text


class TestScatter:
    def test_contains_band_letters_and_legend(self):
        x = {"A": 0.6, "B": 0.2, "C": 0.05}
        y = {"A": 0.7, "B": 0.3, "C": 0.02}
        plot = efficiency_scatter(x, y, 8, 32)
        assert "H" in plot
        assert "I" in plot
        assert "U" in plot
        assert "legend" in plot

    def test_requires_shared_codes(self):
        with pytest.raises(ValueError):
            efficiency_scatter({"A": 0.5}, {"B": 0.5}, 8, 32)

    def test_out_of_range_efficiency_is_clamped(self):
        plot = efficiency_scatter({"A": 1.4}, {"A": 1.2}, 8, 32)
        assert "H" in plot


class TestDescriptions:
    def test_band_summary_groups(self):
        groups = band_summary({"A": Band.HIGH, "B": Band.HIGH,
                               "C": Band.UNACCEPTABLE})
        assert groups[Band.HIGH] == ["A", "B"]
        assert groups[Band.INTERMEDIATE] == []

    def test_fraction_description(self):
        text = fraction_description(
            {"A": Band.HIGH, "B": Band.INTERMEDIATE, "C": Band.INTERMEDIATE,
             "D": Band.UNACCEPTABLE}
        )
        assert "1/4 high" in text
        assert "2/4 intermediate" in text
        assert "1/4 unacceptable" in text

    def test_fraction_description_rejects_empty(self):
        with pytest.raises(ValueError):
            fraction_description({})
