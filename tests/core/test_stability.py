"""Tests for the stability/instability measure St(P, N, K, e)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stability import (
    STABILITY_THRESHOLD,
    instability,
    instability_profile,
    minimal_exclusions_for_stability,
    stability,
)


RATES = {"A": 1.0, "B": 2.0, "C": 4.0, "D": 8.0, "E": 64.0}


def exhaustive_stability(rates, exclusions):
    """Brute-force St over *all* exclusion subsets.

    The production :func:`stability` only searches end-of-order exclusion
    sets; this oracle proves that restriction is lossless on small inputs.
    """
    best = 0.0
    for excluded in itertools.combinations(rates, exclusions):
        kept = [rate for code, rate in rates.items() if code not in excluded]
        best = max(best, min(kept) / max(kept))
    return best


class TestStability:
    def test_no_exclusions_is_min_over_max(self):
        result = stability(RATES)
        assert result.stability == pytest.approx(1.0 / 64.0)
        assert result.excluded == frozenset()
        assert result.retained_min == ("A", 1.0)
        assert result.retained_max == ("E", 64.0)

    def test_single_code_is_perfectly_stable(self):
        assert stability({"only": 7.0}).stability == 1.0

    def test_one_exclusion_drops_the_worst_extreme(self):
        # Dropping E (the high outlier) gives 1/8; dropping A gives 2/64.
        result = stability(RATES, exclusions=1)
        assert result.stability == pytest.approx(1.0 / 8.0)
        assert result.excluded == frozenset({"E"})

    def test_two_exclusions_can_split_between_extremes(self):
        result = stability(RATES, exclusions=2)
        # Two optima tie at 0.25: drop {A, E} (2/8) or {D, E} (1/4).
        assert result.stability == pytest.approx(0.25)
        assert result.excluded in (frozenset({"A", "E"}), frozenset({"D", "E"}))

    def test_rejects_excluding_everything(self):
        with pytest.raises(ValueError):
            stability(RATES, exclusions=5)

    def test_rejects_negative_exclusions(self):
        with pytest.raises(ValueError):
            stability(RATES, exclusions=-1)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            stability({"A": 0.0})

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError):
            stability({})


class TestInstability:
    def test_is_inverse_of_stability(self):
        assert instability(RATES) == pytest.approx(64.0)

    def test_paper_style_profile(self):
        profile = instability_profile(RATES, (0, 1, 2))
        assert profile[0] == pytest.approx(64.0)
        assert profile[2] == pytest.approx(4.0)

    def test_profile_skips_infeasible_exclusions(self):
        profile = instability_profile({"A": 1.0, "B": 2.0}, (0, 5))
        assert 5 not in profile


class TestMinimalExclusions:
    def test_already_stable(self):
        assert minimal_exclusions_for_stability({"A": 1.0, "B": 5.0}) == 0

    def test_needs_two(self):
        rates = {"low": 0.1, "mid1": 3.0, "mid2": 6.0, "high": 100.0}
        # e=0: 1000; e=1: best is 60 or 30; e=2: drop low+high -> 2.
        assert minimal_exclusions_for_stability(rates) == 2

    def test_threshold_parameter(self):
        rates = {"A": 1.0, "B": 3.0}
        assert minimal_exclusions_for_stability(rates, threshold=2.0) == 1

    def test_unreachable_raises(self):
        # Any remaining pair is unstable; a single code is stable, but the
        # search stops before excluding K-1... e = K-1 leaves one code.
        rates = {"A": 1.0, "B": 1e9}
        assert minimal_exclusions_for_stability(rates) == 1


class TestEndExclusionOptimality:
    """The O(e) end-of-order search must match brute force."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.1, 1000.0), min_size=3, max_size=8, unique=True),
        st.integers(0, 3),
    )
    def test_matches_exhaustive(self, values, exclusions):
        rates = {f"c{i}": v for i, v in enumerate(values)}
        if exclusions >= len(rates):
            return
        fast = stability(rates, exclusions)
        assert fast.stability == pytest.approx(
            exhaustive_stability(rates, exclusions)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.1, 1000.0), min_size=2, max_size=10))
    def test_stability_monotone_in_exclusions(self, values):
        rates = {f"c{i}": v for i, v in enumerate(values)}
        best = 0.0
        for e in range(len(rates)):
            current = stability(rates, e).stability
            assert current >= best - 1e-12
            best = current
