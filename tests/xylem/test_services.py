"""Tests for the Xylem file system and memory manager."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import SimulationError
from repro.lang.placement import Placement
from repro.xylem import FileSystem, IORequest, MemoryManager


class TestFileSystem:
    def test_formatted_is_much_slower(self):
        fs = FileSystem()
        fast = fs.seconds_for(1e7, formatted=False)
        slow = fs.seconds_for(1e7, formatted=True)
        assert slow / fast > 10.0

    def test_bdna_style_savings(self):
        fs = FileSystem()
        savings = fs.reformat_savings(11.5e6)
        # The hand BDNA saved ~50s by unformatting its trajectory output.
        assert savings == pytest.approx(49.0, rel=0.1)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            IORequest(-1.0)

    def test_model_layer_shares_constants(self):
        from repro.model.costs import FORMATTED_IO_PENALTY, IO_BYTES_PER_SECOND
        from repro.xylem.filesystem import (
            FORMATTED_PENALTY,
            UNFORMATTED_BYTES_PER_SECOND,
        )
        assert FORMATTED_IO_PENALTY == FORMATTED_PENALTY
        assert IO_BYTES_PER_SECOND == UNFORMATTED_BYTES_PER_SECOND


class TestMemoryManager:
    def test_global_segments_in_upper_half(self):
        manager = MemoryManager()
        cluster_seg = manager.allocate("local", 1000, Placement.CLUSTER)
        global_seg = manager.allocate("shared", 1000, Placement.GLOBAL)
        assert cluster_seg.start_word < manager._global_base
        assert global_seg.start_word >= manager._global_base

    def test_duplicate_name_rejected(self):
        manager = MemoryManager()
        manager.allocate("a", 10)
        with pytest.raises(SimulationError):
            manager.allocate("a", 10)

    def test_touch_unknown_segment(self):
        manager = MemoryManager()
        with pytest.raises(SimulationError):
            manager.touch(0, "ghost")

    def test_trfd_fault_ratio_is_cluster_count(self):
        manager = MemoryManager()
        page_words = manager.vm.page_words
        manager.allocate("arrays", 50 * page_words, Placement.GLOBAL)
        ratio = manager.multicluster_fault_ratio("arrays")
        # "almost four times the number of page faults relative to the
        # one-cluster version".
        assert ratio == pytest.approx(DEFAULT_CONFIG.num_clusters, rel=0.05)

    def test_faults_accumulate_per_cluster(self):
        manager = MemoryManager()
        manager.allocate("seg", 10 * manager.vm.page_words)
        assert manager.touch(0, "seg") > 0
        assert manager.vm.stats[0].page_faults > 0
        assert manager.vm.stats[1].page_faults == 0
