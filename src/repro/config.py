"""Machine configuration for the Cedar simulator and performance models.

Every number here is taken from Section 2 of the paper ("The Organization of
Cedar", ISCA 1993) or derived from it.  The configuration object is shared by
the cycle-level hardware simulator (:mod:`repro.hardware`) and the analytic
machine model (:mod:`repro.model`) so that both layers describe the same
machine.

Units: times are expressed in CE instruction cycles (one cycle = 170 ns)
unless a field name says otherwise; bandwidths in bytes per second; sizes in
bytes or 64-bit words as named.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional


#: CE instruction cycle time in seconds (170 ns, Section 2).
CE_CYCLE_SECONDS = 170e-9

#: Widest crossbar switch a machine may be built with: the builder's
#: radix bound, and the largest radix whose round-robin arbitration table
#: (``2**radix`` entries, about 0.5 MB at 16) the crossbar builds.
MAX_SWITCH_RADIX = 16


def network_stages_for(ports: int, radix: int) -> int:
    """Stages of radix-``radix`` switches needed to connect ``ports`` lines.

    The single definition shared by :class:`CedarConfig`, the
    :class:`~repro.hardware.network.OmegaNetwork` constructor and the
    machine builder's routing-tag derivation -- an integer loop rather
    than ``ceil(log(ports, radix))`` so the three can never disagree on a
    float boundary (``log(64, 8)`` is not reliably ``2.0``).
    """
    stages, lines = 1, radix
    while lines < ports:
        lines *= radix
        stages += 1
    return stages

#: Peak 64-bit vector performance of a single CE in MFLOPS (Section 2).
CE_PEAK_MFLOPS = 11.8

#: Bytes per 64-bit word.
WORD_BYTES = 8


@dataclass(frozen=True)
class VectorUnitConfig:
    """Parameters of the Alliant CE vector unit.

    The CE implements register-memory vector instructions with eight 32-word
    vector registers and chains two arithmetic operations per memory request
    (Section 4.1, "All versions chain two operations per memory request").
    Peak is one 64-bit result per cycle once the pipeline is full; the
    start-up penalty is what separates the 376 MFLOPS absolute peak from the
    paper's 274 MFLOPS "effective peak" for the rank-64 update.
    """

    register_length: int = 32
    #: Pipeline start-up cycles charged to every vector instruction.  Chosen
    #: so that a 32-element vector operation runs at 274/376 of peak:
    #: 32 / (32 + startup) = 0.729 -> startup = 12 cycles.
    startup_cycles: int = 12


@dataclass(frozen=True)
class CacheConfig:
    """Shared cluster cache (Section 2, "Alliant clusters").

    A four-way interleaved write-back cache shared by the cluster's CEs.
    """

    size_bytes: int = 512 * 1024
    line_bytes: int = 32
    #: Outstanding misses allowed per CE (lockup-free, two misses).
    outstanding_misses_per_ce: int = 2
    #: Words the cache can supply per instruction cycle (eight 64-bit words,
    #: i.e. one word per CE per cycle with 8 CEs).
    words_per_cycle: int = 8
    #: Cache hit latency in CE cycles (pipelined; one vector stream/CE).
    hit_latency_cycles: int = 1


@dataclass(frozen=True)
class ClusterMemoryConfig:
    """Cluster memory behind the shared cache."""

    size_bytes: int = 32 * 1024 * 1024
    #: Cluster memory bandwidth is half the cache bandwidth (Section 2):
    #: 192 MB/s per cluster = 4 words per cycle.
    words_per_cycle: int = 4
    #: Miss service latency, cache line from cluster memory, in CE cycles.
    miss_latency_cycles: int = 6


@dataclass(frozen=True)
class NetworkConfig:
    """Cedar global interconnection networks (Section 2, "Global Network").

    Two unidirectional multistage shuffle-exchange networks (forward:
    processor -> memory, reverse: memory -> processor) built from 8x8
    crossbar switches with 64-bit-wide data paths, two-word queues on each
    input and output port, and flow control between stages.  A packet is
    one to four 64-bit words, the first carrying routing/control and the
    memory address (:data:`repro.hardware.packet.MAX_PACKET_WORDS`).
    """

    switch_radix: int = 8
    #: Queue capacity, in packets-words, on each crossbar input/output port.
    port_queue_words: int = 2
    #: Words a switch port forwards per cycle.
    words_per_cycle: int = 1
    #: Minimum one-way first-word latency through network + memory + network
    #: observed by the prefetch monitor is 8 cycles (Section 4.1).  The
    #: simulator derives it from per-stage costs; this is the check value.
    min_first_word_latency_cycles: int = 8
    #: Per-stage switch traversal cost in cycles.
    stage_latency_cycles: int = 1


@dataclass(frozen=True)
class GlobalMemoryConfig:
    """Globally shared memory (Section 2, "Memory Hierarchy")."""

    size_bytes: int = 64 * 1024 * 1024
    #: Number of independent memory modules; 32 double-word interleaved
    #: modules give the 768 MB/s system bandwidth at one word per module
    #: per ~2 cycles.
    num_modules: int = 32
    #: Module busy time per word access, in CE cycles.  The 768 MB/s figure
    #: is the interface (network-matched) peak; the DRAM of the era cycles
    #: in ~500 ns, i.e. 3 CE cycles per word, so sustained module
    #: throughput is ~2/3 of peak -- consistent with the paper's remark
    #: that memory-system characterization benchmarks observed maximum
    #: bandwidth well below peak [GJTV91].
    module_cycle_time: int = 3
    #: End-to-end latency budget: the paper quotes a 13-cycle global memory
    #: latency seen by a CE, of which 8 cycles are network+module minimum
    #: and the rest CE<->prefetch-buffer movement.
    ce_buffer_cycles: int = 5
    interleave_bytes: int = 8
    #: Memory modules carrying a synchronization processor (the first N
    #: modules); ``None`` means every module has one, the machine as
    #: built.  Exposed as a machine-builder knob so design-space sweeps
    #: can ask what a cheaper memory system costs the sync-heavy loops.
    sync_processors: Optional[int] = None

    @property
    def sync_processor_count(self) -> int:
        """Modules with a synchronization processor (defaults to all)."""
        if self.sync_processors is None:
            return self.num_modules
        return self.sync_processors

    @property
    def interleave_words(self) -> int:
        """Consecutive 64-bit words served by one module before the
        interleave advances to the next (1 = double-word interleave)."""
        return max(1, self.interleave_bytes // WORD_BYTES)


@dataclass(frozen=True)
class PrefetchConfig:
    """Per-CE data prefetch unit (Section 2, "Data Prefetch")."""

    buffer_words: int = 512
    #: Maximum requests issued without pausing (absent page crossings).
    max_outstanding: int = 512
    #: Cycles between successive address issues from an armed PFU.
    issue_interval_cycles: int = 1
    #: Compiler-generated prefetch block length in words (Section 3.2).
    compiler_block_words: int = 32
    #: Page size; a prefetch suspends at page boundaries because the PFU
    #: only has physical addresses (Section 2).
    page_bytes: int = 4096


@dataclass(frozen=True)
class ConcurrencyBusConfig:
    """Concurrency control bus (Section 2, "Alliant clusters")."""

    #: Cycles for a concurrent-start broadcast (fast fork): "a few
    #: microseconds" for CDOALL start (Section 3.2); 3 us ~= 18 cycles.
    concurrent_start_cycles: int = 18
    #: Cycles for a CE to self-schedule the next iteration within a cluster.
    self_schedule_cycles: int = 4
    #: Cycles for the join at loop end.
    join_cycles: int = 8


@dataclass(frozen=True)
class SyncConfig:
    """Memory-based synchronization (Section 2)."""

    #: Cycles the memory-module synchronization processor spends on one
    #: Test-And-Operate, beyond the normal module access.
    operate_cycles: int = 2
    #: Loop start-up latency for an XDOALL through global memory: 90 us.
    xdoall_startup_seconds: float = 90e-6
    #: Fetching the next XDOALL iteration: about 30 us.
    xdoall_iteration_fetch_seconds: float = 30e-6
    #: Iteration-fetch cost multiplier when Cedar Test-And-Operate
    #: instructions are NOT used by the runtime library (plain
    #: Test-And-Set spin loops need several global round trips).
    no_cedar_sync_fetch_multiplier: float = 4.0


@dataclass(frozen=True)
class VirtualMemoryConfig:
    """Xylem virtual memory (Section 2 and the TRFD study in Section 4.2)."""

    page_bytes: int = 4096
    tlb_entries: int = 64
    #: Cycles to service a TLB miss whose PTE is valid in global memory
    #: (the "extra faults" of the multicluster TRFD version).
    tlb_miss_cycles: int = 250
    #: Cycles for a hard page fault serviced by Xylem.
    page_fault_cycles: int = 12000


@dataclass(frozen=True)
class MonitorConfig:
    """External hardware performance monitoring (Section 2), with 32-bit
    counters."""

    tracer_capacity_events: int = 1_000_000
    histogrammer_counters: int = 64 * 1024


@dataclass(frozen=True)
class CedarConfig:
    """Full Cedar system configuration (defaults = the machine as built)."""

    num_clusters: int = 4
    ces_per_cluster: int = 8
    vector: VectorUnitConfig = field(default_factory=VectorUnitConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    cluster_memory: ClusterMemoryConfig = field(default_factory=ClusterMemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    global_memory: GlobalMemoryConfig = field(default_factory=GlobalMemoryConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    ccb: ConcurrencyBusConfig = field(default_factory=ConcurrencyBusConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    vm: VirtualMemoryConfig = field(default_factory=VirtualMemoryConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)

    @property
    def num_ces(self) -> int:
        """Total computational elements in the system."""
        return self.num_clusters * self.ces_per_cluster

    @property
    def peak_mflops(self) -> float:
        """Absolute peak 64-bit vector MFLOPS (376 for the full machine)."""
        return self.num_ces * CE_PEAK_MFLOPS

    @property
    def effective_peak_mflops(self) -> float:
        """Peak after unavoidable vector start-up (274 MFLOPS, Section 4.1)."""
        reg = self.vector.register_length
        fraction = reg / (reg + self.vector.startup_cycles)
        return self.peak_mflops * fraction

    @property
    def network_stages(self) -> int:
        """Stages of 8x8 switches needed to connect CEs to memory modules."""
        ports = max(self.num_ces, self.global_memory.num_modules)
        return network_stages_for(ports, self.network.switch_radix)

    def with_clusters(self, num_clusters: int) -> "CedarConfig":
        """Return a copy of this configuration with a different cluster count."""
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        return replace(self, num_clusters=num_clusters)

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert wall-clock seconds to CE instruction cycles."""
        return seconds / CE_CYCLE_SECONDS


#: The Cedar machine as described in the paper.
DEFAULT_CONFIG = CedarConfig()


# ---------------------------------------------------------------------------
# Ambient machine configuration.
#
# Experiment drivers and kernel harnesses default their ``config``
# parameter to "the active configuration" rather than binding
# ``DEFAULT_CONFIG`` at def time.  :func:`overriding` installs a different
# machine for a block -- how a serve job or a test runs the paper's
# experiments on a machine elaborated from a :class:`~repro.builder
# .MachineSpec` without threading a config through every call site.
# Worker processes forked inside the block (``--jobs``/``--partitions``)
# inherit the override, so sharded artifacts stay byte-identical.
# ---------------------------------------------------------------------------

_ACTIVE_CONFIGS: List[CedarConfig] = []


def active_config() -> CedarConfig:
    """The machine configuration call sites should default to.

    The innermost :func:`overriding` block wins; otherwise the paper's
    :data:`DEFAULT_CONFIG`.
    """
    if _ACTIVE_CONFIGS:
        return _ACTIVE_CONFIGS[-1]
    return DEFAULT_CONFIG


@contextmanager
def overriding(config: CedarConfig) -> Iterator[CedarConfig]:
    """Install ``config`` as the ambient machine for the block."""
    _ACTIVE_CONFIGS.append(config)
    try:
        yield config
    finally:
        _ACTIVE_CONFIGS.pop()
