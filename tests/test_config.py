"""Tests for the machine configuration."""

import pytest

from repro.config import CE_CYCLE_SECONDS, CE_PEAK_MFLOPS, DEFAULT_CONFIG


class TestPaperParameters:
    """Every Section 2 number the configuration encodes."""

    def test_machine_shape(self):
        assert DEFAULT_CONFIG.num_clusters == 4
        assert DEFAULT_CONFIG.ces_per_cluster == 8
        assert DEFAULT_CONFIG.num_ces == 32

    def test_cycle_time_170ns(self):
        assert CE_CYCLE_SECONDS == pytest.approx(170e-9)

    def test_peak_mflops(self):
        assert CE_PEAK_MFLOPS == 11.8
        assert DEFAULT_CONFIG.peak_mflops == pytest.approx(377.6)

    def test_effective_peak_274(self):
        assert DEFAULT_CONFIG.effective_peak_mflops == pytest.approx(274.6, abs=1.0)

    def test_cluster_memory_32mb_cache_512kb(self):
        assert DEFAULT_CONFIG.cluster_memory.size_bytes == 32 * 2**20
        assert DEFAULT_CONFIG.cache.size_bytes == 512 * 2**10
        assert DEFAULT_CONFIG.cache.line_bytes == 32

    def test_global_memory_64mb_double_word_interleaved(self):
        assert DEFAULT_CONFIG.global_memory.size_bytes == 64 * 2**20
        assert DEFAULT_CONFIG.global_memory.interleave_bytes == 8

    def test_vector_registers_eight_by_32(self):
        assert DEFAULT_CONFIG.vector.register_length == 32

    def test_prefetch_buffer_512_words(self):
        assert DEFAULT_CONFIG.prefetch.buffer_words == 512
        assert DEFAULT_CONFIG.prefetch.max_outstanding == 512
        assert DEFAULT_CONFIG.prefetch.compiler_block_words == 32

    def test_page_size_4kb(self):
        assert DEFAULT_CONFIG.vm.page_bytes == 4096
        assert DEFAULT_CONFIG.prefetch.page_bytes == 4096

    def test_loop_costs(self):
        assert DEFAULT_CONFIG.sync.xdoall_startup_seconds == pytest.approx(90e-6)
        assert DEFAULT_CONFIG.sync.xdoall_iteration_fetch_seconds == pytest.approx(30e-6)

    def test_monitor_capacities(self):
        assert DEFAULT_CONFIG.monitor.tracer_capacity_events == 1_000_000
        assert DEFAULT_CONFIG.monitor.histogrammer_counters == 64 * 1024

    def test_network_two_stages_for_32_ports(self):
        assert DEFAULT_CONFIG.network_stages == 2
        assert DEFAULT_CONFIG.network.switch_radix == 8
        assert DEFAULT_CONFIG.network.port_queue_words == 2


class TestDerivedHelpers:
    def test_with_clusters(self):
        one = DEFAULT_CONFIG.with_clusters(1)
        assert one.num_ces == 8
        assert DEFAULT_CONFIG.num_clusters == 4  # original frozen

    def test_with_clusters_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_clusters(0)

    def test_time_conversions_roundtrip(self):
        cycles = 12345
        seconds = cycles * CE_CYCLE_SECONDS
        assert DEFAULT_CONFIG.seconds_to_cycles(seconds) == pytest.approx(cycles)

    def test_three_stages_past_64_ports(self):
        import dataclasses
        big = dataclasses.replace(
            DEFAULT_CONFIG.with_clusters(16),
            global_memory=dataclasses.replace(
                DEFAULT_CONFIG.global_memory, num_modules=128
            ),
        )
        assert big.network_stages == 3
