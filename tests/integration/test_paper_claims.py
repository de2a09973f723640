"""Cross-layer integration tests: the paper's qualitative claims.

Each test exercises multiple subsystems together (simulator + monitor,
model + methodology, compiler + model) and checks a sentence from the
paper.  Whole-table regenerations run under ``cedar-repro bench``, which
checks each table's claims (``claims()`` in its experiment driver).
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.bands import Band, classify_speedup
from repro.core.stability import instability
from repro.hardware.ce import ArmFirePrefetch, AwaitPrefetch
from repro.hardware.machine import CedarMachine
from repro.kernels.rank_update import RankUpdateVersion, measure_rank_update
from repro.kernels.vector_load import measure_vector_load
from repro.perfect.suite import run_code, run_suite
from repro.perfect.versions import Version


class TestMemorySystemClaims:
    def test_minimal_latency_8_interarrival_1(self):
        """'Minimal Latency is 8 cycles and minimal Interarrival time is
        1 cycle.'"""
        machine = CedarMachine()

        def kernel(ce):
            handle = yield ArmFirePrefetch(length=32, stride=1,
                                           start_address=64)
            yield AwaitPrefetch(handle)

        machine.run_kernel(kernel, num_ces=1)
        handle = machine.all_ces[0].pfu.completed[0]
        assert handle.first_word_latency() == 8
        assert min(handle.interarrival_times()) == 1

    def test_13_cycle_latency_budget(self):
        """'the 13 cycle latency of the global memory and the two
        outstanding requests allowed per CE' bound GM/no-pref throughput."""
        run = measure_rank_update(RankUpdateVersion.GM_NO_PREFETCH, 1,
                                  strips=1)
        per_ce = run.mflops / 8
        # 2 words / 13 cycles x 2 chained flops = 1.81 MFLOPS per CE.
        assert per_ce == pytest.approx(1.81, rel=0.25)

    def test_contention_causes_the_prefetch_degradation(self):
        """'global memory degradation due to contention causes the
        reduction in the effectiveness of prefetching as the number of
        CEs used increases.'"""
        runs = {n: measure_vector_load(n, blocks=8) for n in (8, 32)}
        assert runs[32].interarrival > runs[8].interarrival
        assert runs[32].first_word_latency > runs[8].first_word_latency


class TestRestructuringClaims:
    def test_kap_limited_automatable_substantial(self):
        """'with the original compiler most programs have very limited
        performance improvement' vs the automatable column."""
        grid = run_suite(versions=(Version.SERIAL, Version.KAP,
                                   Version.AUTOMATABLE))
        kap_limited = sum(
            1 for r in grid.values() if r[Version.KAP].improvement < 1.5
        )
        auto_substantial = sum(
            1 for r in grid.values()
            if r[Version.AUTOMATABLE].improvement > 4.0
        )
        assert kap_limited >= 8
        assert auto_substantial >= 9

    def test_dyfesm_needs_cheap_self_scheduling(self):
        """DYFESM's slowdown without Cedar synchronization (Table 3)."""
        auto = run_code("DYFESM", Version.AUTOMATABLE)
        no_sync = run_code("DYFESM", Version.AUTOMATABLE_NO_SYNC)
        assert no_sync.seconds / auto.seconds > 1.25

    def test_trfd_virtual_memory_pathology_and_fix(self):
        """'close to 50% of the time in virtual memory activity' for the
        multicluster TRFD; the distributed-memory version fixes it."""
        from repro.perfect.suite import get_profile
        profile = get_profile("TRFD")
        auto = run_code("TRFD", Version.AUTOMATABLE)
        assert profile.paging_seconds / auto.seconds > 0.35
        hand = run_code("TRFD", Version.HAND)
        assert hand.seconds < auto.seconds - profile.paging_seconds + 2.0


class TestMethodologyClaims:
    @pytest.fixture(scope="class")
    def mflops(self):
        grid = run_suite(versions=(Version.SERIAL, Version.AUTOMATABLE))
        return {c: r[Version.AUTOMATABLE].mflops for c, r in grid.items()}

    def test_terrible_baseline_instability(self, mflops):
        """'Cedar and the Cray YMP/8 both have terrible instabilities for
        their baseline-automatable computations.'"""
        assert instability(mflops, 0) > 30.0

    def test_spice_is_the_canonical_poor_performer(self, mflops):
        """'several very poor performers (e.g., SPICE)'."""
        assert min(mflops, key=mflops.__getitem__) == "SPICE"

    def test_qcd_hand_is_high_band(self):
        """QCD's 20.8x hand improvement crosses into the high band."""
        result = run_code("QCD", Version.HAND)
        assert classify_speedup(result.improvement, 32) is Band.HIGH

    def test_cedar_passes_ppt1_on_hand_codes(self):
        """'both the Cray YMP and Cedar ... pass PPT1 for the Perfect
        codes' -- no unacceptable hand-optimized code on Cedar."""
        grid = run_suite(versions=(Version.SERIAL, Version.HAND))
        bands = [
            classify_speedup(r[Version.HAND].improvement, 32)
            for r in grid.values()
        ]
        assert Band.UNACCEPTABLE not in bands


class TestClockSpeedStatement:
    def test_clock_ratio(self):
        """'the ratios of clock speeds of the two systems is
        170ns/6ns = 28.33.'"""
        from repro.baselines import CRAY_YMP8
        from repro.config import CE_CYCLE_SECONDS
        ratio = CE_CYCLE_SECONDS * 1e9 / CRAY_YMP8.clock_ns
        assert ratio == pytest.approx(28.33, abs=0.01)
