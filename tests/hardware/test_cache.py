"""Tests for the cluster cache and bandwidth servers."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.hardware.cache import BandwidthServer, ClusterCache
from repro.hardware.engine import Engine


def make_cache():
    engine = Engine()
    cache = ClusterCache(engine, DEFAULT_CONFIG.cache,
                         DEFAULT_CONFIG.cluster_memory)
    return engine, cache


class TestBandwidthServer:
    def test_rate_limits_completion(self):
        engine = Engine()
        server = BandwidthServer(engine, words_per_cycle=8.0)
        assert server.reserve(16) == 2
        assert server.reserve(16) == 4  # FIFO behind the first

    def test_idle_server_starts_now(self):
        engine = Engine()
        server = BandwidthServer(engine, words_per_cycle=4.0)
        engine.schedule(10, lambda: None)
        engine.run()
        assert server.reserve(4) == 11

    def test_rejects_bad_rate_and_words(self):
        engine = Engine()
        with pytest.raises(ValueError):
            BandwidthServer(engine, 0.0)
        server = BandwidthServer(engine, 1.0)
        with pytest.raises(ValueError):
            server.reserve(-1)

    def test_backlog_tracking(self):
        engine = Engine()
        server = BandwidthServer(engine, words_per_cycle=1.0)
        server.reserve(10)
        assert server.reserve(0) == 10  # booked ten cycles ahead of the clock


class TestCacheDirectory:
    def test_lru_eviction(self):
        _, cache = make_cache()
        words_per_line = cache.words_per_line
        total_lines = cache.num_lines
        # Touch one line more than the cache holds.
        for line in range(total_lines + 1):
            cache.install_block(line * words_per_line, 1)
        assert 0 not in cache._lines  # line 0 was the LRU victim
        assert total_lines in cache._lines

    def test_dirty_eviction_counts_write_back(self):
        _, cache = make_cache()
        words_per_line = cache.words_per_line
        cache.install_block(0, 1, dirty=True)
        for line in range(1, cache.num_lines + 1):
            cache.install_block(line * words_per_line, 1)
        assert cache.write_backs == 1

    def test_install_block_marks_residency(self):
        _, cache = make_cache()
        cache.install_block(0, 128)
        words_per_line = cache.words_per_line
        assert 64 // words_per_line in cache._lines
        assert 128 // words_per_line not in cache._lines

    def test_stream_reserves_port_bandwidth(self):
        engine, cache = make_cache()
        finish = cache.stream(64, resident=True)
        # 64 words at 8 words/cycle = 8 cycles + hit latency.
        assert finish == 8 + DEFAULT_CONFIG.cache.hit_latency_cycles

    def test_nonresident_stream_pays_memory_rate(self):
        engine, cache = make_cache()
        resident = ClusterCache(Engine(), DEFAULT_CONFIG.cache,
                                DEFAULT_CONFIG.cluster_memory)
        fast = resident.stream(64, resident=True)
        slow = cache.stream(64, resident=False)
        assert slow > fast

    def test_stream_rejects_negative(self):
        _, cache = make_cache()
        with pytest.raises(ValueError):
            cache.stream(-1)
