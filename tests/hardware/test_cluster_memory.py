"""Tests for the explicit global-to-cluster block move."""

import pytest

from repro.hardware.cluster_memory import move_global_to_cluster


class TestGlobalToCluster:
    def test_block_lands_in_cache(self, machine):
        ce = machine.all_ces[0]

        def kernel(c):
            yield from move_global_to_cluster(c, 1000, 64)

        machine.run_kernel(kernel, num_ces=1)
        words_per_line = ce.cache.words_per_line
        assert 1000 // words_per_line in ce.cache._lines
        assert 1063 // words_per_line in ce.cache._lines

    def test_large_move_chunks_through_the_pfu(self, machine):
        ce = machine.all_ces[0]
        buffer_words = machine.config.prefetch.buffer_words

        def kernel(c):
            yield from move_global_to_cluster(c, 0, buffer_words + 100)

        machine.run_kernel(kernel, num_ces=1)
        # Two prefetches: one full buffer plus the 100-word tail.
        assert len(ce.pfu.completed) == 2

    def test_negative_length_rejected(self, machine):
        ce = machine.all_ces[0]
        with pytest.raises(ValueError):
            list(move_global_to_cluster(ce, 0, -1))

