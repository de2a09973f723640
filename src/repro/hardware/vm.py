"""Xylem virtual memory: 4KB pages, per-cluster TLBs, PTEs in global memory.

Section 4.2's TRFD study found that the improved multicluster version "was
shown to have almost four times the number of page faults relative to the
one-cluster version and was spending close to 50% of the time in virtual
memory activity.  The extra faults are TLB miss faults as each additional
cluster of a multicluster version first accesses pages for which a valid PTE
exists in global memory."  This module reproduces that mechanism: every
cluster has its own TLB, so a page first touched by cluster A still TLB-miss
faults on clusters B, C, D even though its PTE is valid.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.config import VirtualMemoryConfig, WORD_BYTES


@dataclass
class VMStatistics:
    """Per-cluster translation outcome counts."""

    tlb_hits: int = 0
    tlb_miss_faults: int = 0  # PTE valid in global memory, TLB refill only
    page_faults: int = 0  # page not yet materialized anywhere


class TranslationBuffer:
    """An LRU TLB with a fixed number of entries."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"TLB needs >= 1 entry, got {entries}")
        self.entries = entries
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def lookup(self, page: int) -> bool:
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        return False

    def insert(self, page: int) -> None:
        self._pages[page] = None
        self._pages.move_to_end(page)
        if len(self._pages) > self.entries:
            self._pages.popitem(last=False)

    def __len__(self) -> int:
        return len(self._pages)


class VirtualMemory:
    """System-wide VM state: one TLB per cluster, one PTE set in global memory."""

    def __init__(self, config: VirtualMemoryConfig, num_clusters: int) -> None:
        self.config = config
        self.num_clusters = num_clusters
        self._tlbs: List[TranslationBuffer] = [
            TranslationBuffer(config.tlb_entries) for _ in range(num_clusters)
        ]
        self._valid_ptes: Set[int] = set()
        self.stats: List[VMStatistics] = [VMStatistics() for _ in range(num_clusters)]

    @property
    def page_words(self) -> int:
        return self.config.page_bytes // WORD_BYTES

    def page_of(self, word_address: int) -> int:
        return word_address // self.page_words

    def translate(self, cluster: int, word_address: int) -> int:
        """Translate one access; returns the cycle cost of translation.

        0 on a TLB hit; ``tlb_miss_cycles`` when the PTE is valid in global
        memory (the TRFD multicluster case); ``page_fault_cycles`` when the
        page has never been touched (Xylem must build the mapping).
        """
        if not 0 <= cluster < self.num_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        page = self.page_of(word_address)
        stats = self.stats[cluster]
        tlb = self._tlbs[cluster]
        if tlb.lookup(page):
            stats.tlb_hits += 1
            return 0
        tlb.insert(page)
        if page in self._valid_ptes:
            stats.tlb_miss_faults += 1
            return self.config.tlb_miss_cycles
        self._valid_ptes.add(page)
        stats.page_faults += 1
        return self.config.page_fault_cycles

    def touch_range(self, cluster: int, start_word: int, num_words: int) -> int:
        """Translate a contiguous range; returns total translation cycles."""
        if num_words <= 0:
            return 0
        first = self.page_of(start_word)
        last = self.page_of(start_word + num_words - 1)
        return sum(
            self.translate(cluster, page * self.page_words)
            for page in range(first, last + 1)
        )

    def total_faults(self) -> Dict[str, int]:
        """Aggregate fault counts across clusters."""
        return {
            "tlb_miss_faults": sum(s.tlb_miss_faults for s in self.stats),
            "page_faults": sum(s.page_faults for s in self.stats),
            "tlb_hits": sum(s.tlb_hits for s in self.stats),
        }
