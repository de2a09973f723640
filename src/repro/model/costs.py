"""Cost equations of the analytic machine model.

Every constant is traceable either to Section 2/3 of the paper (loop
start-up latencies, bandwidths, the 13-cycle global latency) or to the cycle
simulator (the prefetch-effectiveness curve, which
:mod:`repro.model.calibration` can re-derive from Table 2 runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.config import CE_CYCLE_SECONDS, CedarConfig, DEFAULT_CONFIG
from repro.lang.loops import LoopKind
from repro.lang.placement import Placement
from repro.lang.runtime import RuntimeOptions


#: Words/cycle one CE sustains from global memory through the PFU, by total
#: CEs making global accesses.  Produced by
#: :func:`repro.model.calibration.calibrate_prefetch_curve` from the cycle
#: simulator's VL runs (the Table 2 experiment viewed as a rate): near the
#: port rate for one CE, dropping steeply as memory-module and switch
#: contention grow (interarrival 1 -> ~3 cycles at 32 CEs).
DEFAULT_PREFETCH_RATE_CURVE: Mapping[int, float] = {
    1: 0.82,
    8: 0.75,
    16: 0.53,
    24: 0.36,
    32: 0.27,
}

#: Scalar floating-point rate of a CE, flops per cycle (a 68020-class scalar
#: pipeline delivers roughly one flop every five cycles).
SCALAR_FLOPS_PER_CYCLE = 0.2

#: Peak chained vector rate: one element per cycle, two chained operations.
VECTOR_PEAK_FLOPS_PER_CYCLE = 2.0

#: I/O rates come from the Xylem file service (the cost authority; see
#: repro.xylem.filesystem).  The BDNA fix in Section 4.2 was precisely
#: replacing formatted with unformatted I/O for a large whole-code win.
from repro.xylem.filesystem import (  # noqa: E402  (cost constants)
    FORMATTED_PENALTY as FORMATTED_IO_PENALTY,
    UNFORMATTED_BYTES_PER_SECOND as IO_BYTES_PER_SECOND,
)

#: Cycles for one multicluster barrier through global memory: every cluster
#: round-trips sync words, ~10 global latencies with contention.
MULTICLUSTER_BARRIER_CYCLES = 1200.0

#: Cycles for an intra-cluster barrier via the concurrency-control bus.
CLUSTER_BARRIER_CYCLES = 30.0


@dataclass(frozen=True)
class MemoryLevelRates:
    """Sustained words/cycle per CE for each placement and access mode."""

    global_prefetched: float
    global_vector_no_prefetch: float
    global_scalar: float
    cluster_vector: float
    cluster_scalar: float


class CostModel:
    """Turns machine configuration + runtime options into cost equations."""

    def __init__(
        self,
        config: CedarConfig = DEFAULT_CONFIG,
        prefetch_rate_curve: Mapping[int, float] = DEFAULT_PREFETCH_RATE_CURVE,
    ) -> None:
        self.config = config
        self.curve: Dict[int, float] = dict(sorted(prefetch_rate_curve.items()))
        if not self.curve:
            raise ValueError("prefetch rate curve cannot be empty")

    # -- scheduling ---------------------------------------------------------

    def loop_startup_cycles(self, kind: LoopKind) -> float:
        """One-time cost to spread a DOALL (Section 3.2)."""
        sync = self.config.sync
        if kind is LoopKind.XDOALL:
            return sync.xdoall_startup_seconds / CE_CYCLE_SECONDS
        if kind is LoopKind.SDOALL:
            # Scheduled per cluster through global memory: the same run-time
            # library path, amortized over clusters rather than CEs.
            return sync.xdoall_startup_seconds / CE_CYCLE_SECONDS / 2.0
        return float(self.config.ccb.concurrent_start_cycles)

    def iteration_fetch_cycles(self, kind: LoopKind, options: RuntimeOptions) -> float:
        """Cost to claim the next iteration when self-scheduling."""
        sync = self.config.sync
        if kind is LoopKind.CDOALL:
            return float(self.config.ccb.self_schedule_cycles)
        base = sync.xdoall_iteration_fetch_seconds / CE_CYCLE_SECONDS
        if not options.use_cedar_sync:
            base *= sync.no_cedar_sync_fetch_multiplier
        return base

    # -- memory -------------------------------------------------------------

    def prefetch_words_per_cycle(self, active_ces: int) -> float:
        """Interpolated per-CE PFU stream rate under contention."""
        if active_ces < 1:
            raise ValueError(f"need >= 1 CE, got {active_ces}")
        points = sorted(self.curve.items())
        if active_ces <= points[0][0]:
            return points[0][1]
        for (p0, r0), (p1, r1) in zip(points, points[1:]):
            if active_ces <= p1:
                t = (active_ces - p0) / (p1 - p0)
                return r0 + t * (r1 - r0)
        return points[-1][1]

    def memory_rates(self, active_ces: int) -> MemoryLevelRates:
        """Per-CE sustained rates at a given machine-wide activity level."""
        gm = self.config.global_memory
        latency = float(
            gm.ce_buffer_cycles + self.config.network.min_first_word_latency_cycles
        )
        per_ce_in_cluster = self.config.ces_per_cluster
        return MemoryLevelRates(
            global_prefetched=self.prefetch_words_per_cycle(active_ces),
            # Two outstanding requests over the 13-cycle latency.
            global_vector_no_prefetch=self.config.cache.outstanding_misses_per_ce
            / latency,
            global_scalar=1.0 / latency,
            # Cache supplies one word/cycle/CE when all CEs stream.
            cluster_vector=self.config.cache.words_per_cycle / per_ce_in_cluster,
            cluster_scalar=0.5,
        )

    def words_per_cycle(
        self,
        placement: Placement,
        active_ces: int,
        options: RuntimeOptions,
        prefetchable_fraction: float,
        scalar_fraction: float,
    ) -> float:
        """Blended per-CE rate for a loop body's memory traffic."""
        rates = self.memory_rates(active_ces)
        if placement is Placement.GLOBAL:
            vector_rate = (
                rates.global_prefetched
                if options.use_prefetch
                else rates.global_vector_no_prefetch
            )
            covered = prefetchable_fraction if options.use_prefetch else 0.0
            vector_part = covered
            fallthrough = 1.0 - covered - scalar_fraction
            if fallthrough < 0.0:
                fallthrough = 0.0
                scalar_fraction = 1.0 - covered
            denominator = (
                vector_part / vector_rate
                + fallthrough / rates.global_vector_no_prefetch
                + scalar_fraction / rates.global_scalar
            )
        else:
            vector_part = 1.0 - scalar_fraction
            denominator = (
                vector_part / rates.cluster_vector
                + scalar_fraction / rates.cluster_scalar
            )
        if denominator <= 0:
            raise ValueError("memory mix produced a non-positive service demand")
        return 1.0 / denominator

    # -- computation ---------------------------------------------------------

    def flops_per_cycle(
        self, vector_fraction: float, vector_length: int, scalar_only: bool = False
    ) -> float:
        """Blended per-CE arithmetic rate."""
        if scalar_only:
            return SCALAR_FLOPS_PER_CYCLE
        startup = self.config.vector.startup_cycles
        vector_rate = VECTOR_PEAK_FLOPS_PER_CYCLE * vector_length / (
            vector_length + startup
        )
        if vector_fraction >= 1.0:
            return vector_rate
        denominator = (
            vector_fraction / vector_rate
            + (1.0 - vector_fraction) / SCALAR_FLOPS_PER_CYCLE
        )
        return 1.0 / denominator

    # -- other constructs ------------------------------------------------------

    def barrier_cycles(self, multicluster: bool, num_clusters: int) -> float:
        if multicluster and num_clusters > 1:
            return MULTICLUSTER_BARRIER_CYCLES * (1.0 + 0.2 * (num_clusters - 1))
        return CLUSTER_BARRIER_CYCLES

    def reduction_cycles(self, elements: int, options: RuntimeOptions) -> float:
        """Tree reduction through global synchronization words."""
        latency = 13.0
        per_element = latency if options.use_cedar_sync else 3.0 * latency
        return per_element * max(1.0, float(elements))

    def io_seconds(self, byte_count: float, formatted: bool) -> float:
        rate = IO_BYTES_PER_SECOND
        if formatted:
            rate /= FORMATTED_IO_PENALTY
        return byte_count / rate

    def move_cycles(self, words: float, active_ces: int) -> float:
        """Explicit global<->cluster block move, streamed through the PFUs."""
        rate = self.prefetch_words_per_cycle(active_ces)
        return words / rate
