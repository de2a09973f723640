"""Tests for the analytic cost model."""

from dataclasses import replace

import pytest

from repro.config import CE_CYCLE_SECONDS, DEFAULT_CONFIG
from repro.lang.loops import LoopKind
from repro.lang.placement import Placement
from repro.lang.runtime import RuntimeOptions
from repro.model.costs import CostModel


@pytest.fixture
def costs():
    return CostModel(DEFAULT_CONFIG)


OPTIONS = RuntimeOptions()


class TestScheduling:
    def test_xdoall_startup_is_90us(self, costs):
        cycles = costs.loop_startup_cycles(LoopKind.XDOALL)
        assert cycles * CE_CYCLE_SECONDS == pytest.approx(90e-6)

    def test_cdoall_starts_in_microseconds(self, costs):
        cycles = costs.loop_startup_cycles(LoopKind.CDOALL)
        assert cycles * CE_CYCLE_SECONDS < 5e-6

    def test_xdoall_fetch_is_30us_with_cedar_sync(self, costs):
        cycles = costs.iteration_fetch_cycles(LoopKind.XDOALL, OPTIONS)
        assert cycles * CE_CYCLE_SECONDS == pytest.approx(30e-6)

    def test_fetch_without_cedar_sync_is_multiplied(self, costs):
        with_sync = costs.iteration_fetch_cycles(LoopKind.XDOALL, OPTIONS)
        without = costs.iteration_fetch_cycles(
            LoopKind.XDOALL, replace(OPTIONS, use_cedar_sync=False)
        )
        assert without == pytest.approx(
            with_sync * DEFAULT_CONFIG.sync.no_cedar_sync_fetch_multiplier
        )

    def test_cdoall_fetch_unaffected_by_sync_option(self, costs):
        a = costs.iteration_fetch_cycles(LoopKind.CDOALL, OPTIONS)
        b = costs.iteration_fetch_cycles(
            LoopKind.CDOALL, replace(OPTIONS, use_cedar_sync=False)
        )
        assert a == b  # the CCB, not global memory, schedules CDOALLs


class TestPrefetchCurve:
    def test_interpolation_between_points(self, costs):
        r8 = costs.prefetch_words_per_cycle(8)
        r16 = costs.prefetch_words_per_cycle(16)
        r12 = costs.prefetch_words_per_cycle(12)
        assert min(r8, r16) <= r12 <= max(r8, r16)

    def test_clamps_at_ends(self, costs):
        assert costs.prefetch_words_per_cycle(1) == costs.curve[1]
        assert costs.prefetch_words_per_cycle(1000) == costs.curve[32]

    def test_monotone_decreasing(self, costs):
        rates = [costs.prefetch_words_per_cycle(n) for n in (1, 8, 16, 24, 32)]
        assert rates == sorted(rates, reverse=True)

    def test_rejects_zero_ces(self, costs):
        with pytest.raises(ValueError):
            costs.prefetch_words_per_cycle(0)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            CostModel(DEFAULT_CONFIG, {})


class TestMemoryRates:
    def test_no_prefetch_rate_is_two_over_latency(self, costs):
        rates = costs.memory_rates(8)
        assert rates.global_vector_no_prefetch == pytest.approx(2.0 / 13.0)

    def test_prefetched_beats_unprefetched(self, costs):
        rates = costs.memory_rates(8)
        assert rates.global_prefetched > rates.global_vector_no_prefetch

    def test_blended_rate_between_components(self, costs):
        rate = costs.words_per_cycle(
            Placement.GLOBAL, 8, OPTIONS,
            prefetchable_fraction=0.8, scalar_fraction=0.1,
        )
        rates = costs.memory_rates(8)
        assert rates.global_scalar < rate < rates.global_prefetched

    def test_disabling_prefetch_lowers_rate(self, costs):
        fast = costs.words_per_cycle(Placement.GLOBAL, 8, OPTIONS, 0.8, 0.1)
        slow = costs.words_per_cycle(
            Placement.GLOBAL, 8, replace(OPTIONS, use_prefetch=False), 0.8, 0.1
        )
        assert slow < fast

    def test_cluster_rate_ignores_prefetch(self, costs):
        a = costs.words_per_cycle(Placement.CLUSTER, 8, OPTIONS, 0.8, 0.1)
        b = costs.words_per_cycle(
            Placement.CLUSTER, 8, replace(OPTIONS, use_prefetch=False), 0.8, 0.1
        )
        assert a == b


class TestComputeAndOther:
    def test_vector_rate_amortizes_with_length(self, costs):
        assert costs.flops_per_cycle(1.0, 64) > costs.flops_per_cycle(1.0, 8)

    def test_scalar_only(self, costs):
        assert costs.flops_per_cycle(0.9, 32, scalar_only=True) == 0.2

    def test_multicluster_barrier_costlier(self, costs):
        assert costs.barrier_cycles(True, 4) > costs.barrier_cycles(False, 4)

    def test_formatted_io_penalty(self, costs):
        assert costs.io_seconds(1e6, True) == pytest.approx(
            costs.io_seconds(1e6, False) * 18.0
        )

    def test_reduction_cheaper_with_cedar_sync(self, costs):
        fast = costs.reduction_cycles(32, OPTIONS)
        slow = costs.reduction_cycles(32, replace(OPTIONS, use_cedar_sync=False))
        assert slow > fast
