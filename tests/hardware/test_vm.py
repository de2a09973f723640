"""Tests for the Xylem virtual-memory model (the TRFD mechanism)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.hardware.vm import TranslationBuffer, VirtualMemory


class TestTranslationBuffer:
    def test_hit_after_insert(self):
        tlb = TranslationBuffer(4)
        tlb.insert(7)
        assert tlb.lookup(7)

    def test_lru_eviction(self):
        tlb = TranslationBuffer(2)
        tlb.insert(1)
        tlb.insert(2)
        tlb.lookup(1)  # refresh 1
        tlb.insert(3)  # evicts 2
        assert tlb.lookup(1)
        assert not tlb.lookup(2)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TranslationBuffer(0)


class TestVirtualMemory:
    def test_first_touch_is_a_page_fault(self):
        vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=4)
        cost = vm.translate(0, 0)
        assert cost == DEFAULT_CONFIG.vm.page_fault_cycles
        assert vm.stats[0].page_faults == 1

    def test_second_touch_same_cluster_hits(self):
        vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=4)
        vm.translate(0, 0)
        assert vm.translate(0, 1) == 0  # same page
        assert vm.stats[0].tlb_hits == 1

    def test_trfd_mechanism_cross_cluster_tlb_faults(self):
        """Each additional cluster TLB-miss faults on pages whose PTE is
        already valid in global memory (Section 4.2)."""
        vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=4)
        vm.translate(0, 0)  # cluster 0 materializes the page
        for cluster in (1, 2, 3):
            cost = vm.translate(cluster, 0)
            assert cost == DEFAULT_CONFIG.vm.tlb_miss_cycles
        totals = vm.total_faults()
        assert totals["page_faults"] == 1
        assert totals["tlb_miss_faults"] == 3

    def test_four_cluster_run_has_about_4x_the_faults(self):
        """The paper's observation: the multicluster TRFD had ~4x the
        faults of the one-cluster version."""
        pages = 200
        page_words = DEFAULT_CONFIG.vm.page_bytes // 8

        def run(num_clusters):
            vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=4)
            for cluster in range(num_clusters):
                vm.touch_range(cluster, 0, pages * page_words)
            totals = vm.total_faults()
            return totals["page_faults"] + totals["tlb_miss_faults"]

        assert run(4) == 4 * run(1)

    def test_touch_range_counts_pages(self):
        vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=1)
        page_words = vm.page_words
        vm.touch_range(0, 0, 3 * page_words)
        assert vm.stats[0].page_faults == 3

    def test_touch_range_empty_is_free(self):
        vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=1)
        assert vm.touch_range(0, 0, 0) == 0

    def test_cluster_bounds_checked(self):
        vm = VirtualMemory(DEFAULT_CONFIG.vm, num_clusters=2)
        with pytest.raises(ValueError):
            vm.translate(5, 0)
