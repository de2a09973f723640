"""The shared, 4-way interleaved cluster cache (Section 2).

512KB, 32-byte lines, write-back, lockup-free (two outstanding misses per
CE), writes do not stall a CE.  "The cache bandwidth is eight 64-bit words
per instruction cycle, sufficient to supply one input stream to a vector
instruction in each processor."

Timing model: the cache is a shared *bandwidth server* -- reservations of N
words complete no faster than the aggregate words-per-cycle rate allows --
plus an LRU directory of resident lines for hit/miss classification.  The
interleaving itself is folded into the aggregate rate (four banks each
serving two words per cycle).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CacheConfig, ClusterMemoryConfig, WORD_BYTES
from repro.hardware import sanitize
from repro.hardware.engine import Engine


class BandwidthServer:
    """Serializes word reservations against an aggregate words/cycle rate."""

    def __init__(self, engine: Engine, words_per_cycle: float, name: str = "") -> None:
        if words_per_cycle <= 0:
            raise ValueError(f"rate must be positive, got {words_per_cycle}")
        self.engine = engine
        self.words_per_cycle = words_per_cycle
        self.name = name
        self._next_free = 0.0
        self._sanitizer = sanitize.current()

    def reserve(self, words: int) -> int:
        """Reserve ``words`` of transfer; returns the completion cycle.

        Reservations are granted in call order (FIFO): the transfer starts
        no earlier than the previous one finished.
        """
        if words < 0:
            raise ValueError(f"cannot reserve {words} words")
        previous_free = self._next_free
        start = max(float(self.engine.now), self._next_free)
        finish = start + words / self.words_per_cycle
        self._next_free = finish
        if self._sanitizer is not None:
            self._sanitizer.check_bandwidth_reserve(
                self, previous_free, start, finish, words
            )
        return int(round(finish))


class ClusterCache:
    """Directory + bandwidth model of one cluster's shared cache."""

    def __init__(
        self,
        engine: Engine,
        config: CacheConfig,
        memory_config: ClusterMemoryConfig,
        name: str = "cache",
        tracer=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.memory_config = memory_config
        self.name = name
        self.trace = tracer.if_enabled() if tracer is not None else None
        # Counters group under "cache" with the cluster as the subunit, so
        # "cl2.cache" reports as component "cache.cl2".
        self._trace_component = (
            f"cache.{name.split('.', 1)[0]}" if "." in name else "cache"
        )
        self._lines: "OrderedDict[int, bool]" = OrderedDict()  # line -> dirty
        self.num_lines = config.size_bytes // config.line_bytes
        self.words_per_line = config.line_bytes // WORD_BYTES
        self.port = BandwidthServer(engine, config.words_per_cycle, f"{name}.port")
        self.memory_port = BandwidthServer(
            engine, memory_config.words_per_cycle, f"{name}.membus"
        )
        self._sanitizer = sanitize.current()
        self.hits = 0
        self.misses = 0
        self.write_backs = 0

    def _line_of(self, address: int) -> int:
        return address // self.words_per_line

    def _touch(self, line: int, dirty: bool) -> None:
        previously_dirty = self._lines.pop(line, False)
        self._lines[line] = previously_dirty or dirty
        if len(self._lines) > self.num_lines:
            _, victim_dirty = self._lines.popitem(last=False)
            if victim_dirty:
                self.write_backs += 1
                if self.trace is not None:
                    self.trace.count(self._trace_component, "write_backs")
                # Write-back consumes memory-bus bandwidth but never stalls
                # the requester (write-back cache, non-blocking writes).
                self.memory_port.reserve(self.words_per_line)

    def stream(self, length: int, resident: bool = True) -> int:
        """Reserve a vector stream of ``length`` words; returns finish cycle.

        ``resident=True`` models accesses to a cached work array (the paper's
        GM/cache rank-64 version); ``resident=False`` streams through cluster
        memory at the memory-bus rate.
        """
        if length < 0:
            raise ValueError(f"stream length must be >= 0, got {length}")
        if resident:
            self.hits += length
            if self.trace is not None:
                self._trace_access(True, length)
            return self.port.reserve(length) + self.config.hit_latency_cycles
        self.misses += max(1, length // self.words_per_line)
        if self.trace is not None:
            self._trace_access(False, max(1, length // self.words_per_line))
        fill = self.memory_port.reserve(length)
        return max(fill, self.port.reserve(length)) + self.memory_config.miss_latency_cycles

    def _trace_access(self, hit: bool, count: int) -> None:
        """Count a hit/miss and sparsely sample the hit-rate timeline."""
        assert self.trace is not None
        self.trace.count(self._trace_component, "hits" if hit else "misses", count)
        accesses = self.hits + self.misses
        if accesses % 256 < count:
            self.trace.sample(
                self._trace_component, "hit_rate_percent",
                round(100.0 * self.hits / accesses, 2), self.engine.now,
            )

    def install_block(self, start_address: int, length: int, dirty: bool = False) -> None:
        """Mark a block resident (used after an explicit global->cluster move)."""
        first = self._line_of(start_address)
        last = self._line_of(start_address + max(0, length - 1))
        for line in range(first, last + 1):
            self._touch(line, dirty)
        if self._sanitizer is not None:
            self._sanitizer.check_cache_directory(self)
