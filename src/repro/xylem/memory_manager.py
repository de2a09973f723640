"""Xylem virtual-memory management on top of the hardware VM.

Allocates segments in cluster or global memory (the physical address space
is split in half, Section 2), tracks page placement, and services faults
using the per-cluster TLB model -- giving OS-level accounting for the TRFD
analysis of [MaEG92].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import CedarConfig, DEFAULT_CONFIG, WORD_BYTES
from repro.errors import SimulationError
from repro.hardware.vm import VirtualMemory
from repro.lang.placement import Placement


@dataclass(frozen=True)
class Segment:
    """One allocated memory segment."""

    name: str
    start_word: int
    num_words: int
    placement: Placement


class MemoryManager:
    """Segment allocation plus fault-cost accounting."""

    def __init__(self, config: CedarConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        self.vm = VirtualMemory(config.vm, config.num_clusters)
        # Lower half of the physical space: cluster memory; upper: global.
        total_words = (
            config.cluster_memory.size_bytes * config.num_clusters
            + config.global_memory.size_bytes
        ) // WORD_BYTES
        self._global_base = total_words // 2
        self._next_cluster_word = 0
        self._next_global_word = self._global_base
        self.segments: Dict[str, Segment] = {}

    def allocate(self, name: str, num_words: int,
                 placement: Placement = Placement.CLUSTER) -> Segment:
        """Allocate a segment; global segments live in the upper half."""
        if num_words < 1:
            raise ValueError("segments need at least one word")
        if name in self.segments:
            raise SimulationError(f"segment {name!r} already allocated")
        page_words = self.vm.page_words
        if placement is Placement.GLOBAL:
            start = self._next_global_word
            self._next_global_word += -(-num_words // page_words) * page_words
            limit_words = (
                self._global_base
                + self.config.global_memory.size_bytes // WORD_BYTES
            )
            if self._next_global_word > limit_words:
                raise SimulationError("global memory exhausted")
        else:
            start = self._next_cluster_word
            self._next_cluster_word += -(-num_words // page_words) * page_words
            if self._next_cluster_word > self._global_base:
                raise SimulationError("cluster memory exhausted")
        segment = Segment(
            name=name, start_word=start, num_words=num_words,
            placement=placement,
        )
        self.segments[name] = segment
        return segment

    def touch(self, cluster: int, segment_name: str) -> int:
        """A cluster walks a whole segment; returns translation cycles."""
        segment = self._get(segment_name)
        return self.vm.touch_range(cluster, segment.start_word,
                                   segment.num_words)

    def multicluster_fault_ratio(self, segment_name: str) -> float:
        """Faults of a 4-cluster walk over a 1-cluster walk (TRFD's ~4x).

        Uses a fresh manager so the measurement is not polluted by prior
        touches.
        """
        def faults(clusters: int) -> int:
            manager = MemoryManager(self.config)
            segment = self._get(segment_name)
            manager.segments[segment_name] = segment
            for cluster in range(clusters):
                manager.touch(cluster, segment_name)
            totals = manager.vm.total_faults()
            return totals["page_faults"] + totals["tlb_miss_faults"]

        return faults(self.config.num_clusters) / faults(1)

    def _get(self, name: str) -> Segment:
        try:
            return self.segments[name]
        except KeyError:
            raise SimulationError(f"no segment named {name!r}") from None
