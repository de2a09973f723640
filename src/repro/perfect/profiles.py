"""Per-code workload profiles for the Perfect Benchmarks on Cedar.

A profile records, in machine-neutral terms, the program characteristics
that Sections 3.3/4.2 identify as driving each code's behaviour.  The
original Fortran sources and the Perfect input decks are not available to
us, so each profile is a reconstruction: the structural parameters are set
from the paper's per-code commentary and the companion CSRD reports, and
validated against every quantitative statement the paper makes (see
EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class HandOptimization:
    """What the Section 4.2 hand tuning did to a code.

    Each field is a structural change applied on top of the automatable
    profile; the defaults mean "no change".
    """

    #: Multiply the flop count (ARC3D's "substantial number of unnecessary
    #: computations" elimination shrinks it below 1).
    flops_factor: float = 1.0
    #: Replace formatted with unformatted I/O (BDNA) or eliminate it (MG3D).
    unformatted_io: bool = False
    io_bytes_factor: float = 1.0
    #: Parallelize formerly serial phases (QCD's hand-coded parallel RNG).
    extra_coverage: float = 0.0
    #: Collapse sequences of multicluster barriers into one plus per-cluster
    #: barrier chains via the concurrency-control hardware (FL052).
    multicluster_barrier_factor: float = 1.0
    #: Better kernels / data reshaping: raises vector length and the
    #: prefetchable fraction (DYFESM, TRFD).
    vector_length: Optional[int] = None
    prefetchable_fraction: Optional[float] = None
    #: Distribute data to cluster memories (ARC3D, TRFD): converts this
    #: fraction of global traffic to cluster-memory traffic.
    distribute_global_fraction: float = 0.0
    #: Fix the multicluster TLB-fault pathology with a distributed-memory
    #: version (TRFD); when False the automatable multicluster run pays
    #: ``paging_seconds``.
    fix_paging: bool = False
    #: Algorithmic replacement of major phases (SPICE): scales the serial
    #: remainder's time.
    serial_factor: float = 1.0
    #: Exploit the hierarchical SDOALL/CDOALL control structure (DYFESM's
    #: [YaGa93] rewrite): cluster-level scheduling through the CCB.
    use_cluster_hierarchy: bool = False
    notes: str = ""


@dataclass(frozen=True)
class CodeProfile:
    """Workload model of one Perfect code.

    Attributes (volumes describe the *whole run* of the Perfect data set):
        name: Code name as in Table 3.
        description: What the application computes.
        total_flops: Floating-point operations (the monitor count used for
            MFLOPS).
        flops_per_word: Arithmetic intensity of the loop bodies.
        kap_coverage: Fraction of the flops inside loops the 1988 KAP
            retarget parallelizes.
        auto_coverage: Coverage after the automatable transformations
            (array privatization, parallel reductions, induction-variable
            substitution, run-time dependence tests, ...).
        trip_count: Typical parallel-loop trip count; bounds useful
            parallelism (DYFESM's "limited parallelism available").
        parallel_loop_instances: Dynamic count of parallel-loop starts
            (drives the 90us XDOALL start-up total).
        loop_flops_vector_fraction: Vectorized fraction inside parallel
            loop bodies.
        serial_vector_fraction: Vectorized fraction of the non-parallelized
            remainder in compiled versions.
        vector_length: Typical vector length.
        global_data_fraction: Fraction of loop traffic against GLOBAL data
            (the rest is cluster or loop-local after privatization).
        prefetchable_fraction: Fraction of that global traffic the compiler
            can cover with PFU blocks.
        scalar_memory_fraction: Non-vector (unprefetchable) access fraction
            (TRACK's "domination of scalar accesses").
        io_bytes: File I/O volume.
        io_formatted: Whether the I/O is formatted (BDNA).
        multicluster_barriers: Dynamic count of multicluster barrier
            sequences (FL052's pathology).
        reduction_elements: Elements combined in global reductions.
        paging_seconds: Extra virtual-memory time in multicluster runs
            (TRFD's TLB-fault storm).
        kap_single_cluster: Whether the Perfect-rules KAP run was confined
            to one cluster "to avoid intercluster overhead".
        hand: The Section 4.2 hand-optimization recipe, if the paper
            reports one.
    """

    name: str
    description: str
    total_flops: float
    flops_per_word: float
    kap_coverage: float
    auto_coverage: float
    trip_count: int
    parallel_loop_instances: int
    loop_vector_fraction: float
    serial_vector_fraction: float
    vector_length: int
    global_data_fraction: float
    prefetchable_fraction: float
    scalar_memory_fraction: float
    io_bytes: float = 0.0
    io_formatted: bool = False
    multicluster_barriers: int = 0
    reduction_elements: int = 0
    paging_seconds: float = 0.0
    kap_single_cluster: bool = False
    #: Fraction of the work units that are floating-point operations the
    #: hardware monitor counts (SPICE's work is mostly pointer chasing, so
    #: its fraction -- and hence its MFLOPS -- is tiny).
    monitor_flop_fraction: float = 1.0
    hand: Optional[HandOptimization] = None

    def __post_init__(self) -> None:
        for name in (
            "kap_coverage",
            "auto_coverage",
            "loop_vector_fraction",
            "serial_vector_fraction",
            "global_data_fraction",
            "prefetchable_fraction",
            "scalar_memory_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {name} must be in [0,1], got {value}")
        if self.kap_coverage > self.auto_coverage:
            raise ValueError(
                f"{self.name}: KAP cannot cover more than the automatable "
                "transformations"
            )
        if self.total_flops <= 0 or self.flops_per_word <= 0:
            raise ValueError(f"{self.name}: volumes must be positive")
        if self.trip_count < 1 or self.parallel_loop_instances < 1:
            raise ValueError(f"{self.name}: loop structure must be positive")

    @property
    def total_words(self) -> float:
        return self.total_flops / self.flops_per_word

    @property
    def monitor_flops(self) -> float:
        """Floating-point operations as the hardware monitor counts them."""
        return self.total_flops * self.monitor_flop_fraction

    def with_hand_optimization(self) -> "CodeProfile":
        """The profile after applying the Section 4.2 hand recipe."""
        if self.hand is None:
            raise ValueError(f"{self.name} has no hand-optimized version")
        hand = self.hand
        total_flops = self.total_flops * hand.flops_factor
        coverage = min(1.0, self.auto_coverage + hand.extra_coverage)
        if hand.serial_factor != 1.0:
            parallel = total_flops * coverage
            serial = total_flops * (1.0 - coverage) * hand.serial_factor
            total_flops = parallel + serial
            coverage = parallel / total_flops if total_flops > 0 else coverage
        changes = {
            "total_flops": total_flops,
            "io_bytes": self.io_bytes * hand.io_bytes_factor,
            "auto_coverage": coverage,
            "multicluster_barriers": int(
                self.multicluster_barriers * hand.multicluster_barrier_factor
            ),
        }
        if hand.unformatted_io:
            changes["io_formatted"] = False
        if hand.vector_length is not None:
            changes["vector_length"] = hand.vector_length
        if hand.prefetchable_fraction is not None:
            changes["prefetchable_fraction"] = hand.prefetchable_fraction
        if hand.distribute_global_fraction > 0.0:
            changes["global_data_fraction"] = self.global_data_fraction * (
                1.0 - hand.distribute_global_fraction
            )
        if hand.fix_paging:
            changes["paging_seconds"] = 0.0
        return replace(self, **changes)
