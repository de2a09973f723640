"""Program constructs of the CEDAR FORTRAN workload IR.

A program for the analytic machine model is a sequence of these constructs.
``Work`` describes straight-line computation in machine-neutral terms
(flops, memory words touched, vector character); the surrounding constructs
describe how that work is spread over the machine and what scheduling,
synchronization, I/O and data-movement costs it drags along.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence, Union

from repro.lang.placement import Placement


class LoopKind(enum.Enum):
    """The three DOALL flavors (Section 3.2, "Parallel Loops")."""

    #: Schedules each iteration on any processor in the machine through
    #: global memory: ~90us startup, ~30us per iteration fetch.
    XDOALL = "xdoall"
    #: Schedules each iteration on an entire cluster; idle until a CDOALL
    #: inside the body spreads work within the cluster.
    SDOALL = "sdoall"
    #: Spreads iterations over one cluster's CEs via the concurrency
    #: control bus: starts in a few microseconds.
    CDOALL = "cdoall"


@dataclass(frozen=True)
class Work:
    """Straight-line computation, machine-neutral.

    Attributes:
        flops: Floating-point operations.
        memory_words: 64-bit words moved to/from the dominant memory level.
        vector_fraction: Fraction of the flops that vectorize.
        vector_length: Typical vector length (drives start-up amortization).
        scalar_memory_fraction: Fraction of the words accessed by scalar
            (non-vector, hence non-prefetchable) references.
    """

    flops: float
    memory_words: float
    vector_fraction: float = 0.9
    vector_length: int = 32
    scalar_memory_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.flops < 0 or self.memory_words < 0:
            raise ValueError("work cannot be negative")
        for name in ("vector_fraction", "scalar_memory_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.vector_length < 1:
            raise ValueError("vector_length must be >= 1")

    def scaled(self, factor: float) -> "Work":
        """The same work profile scaled in volume."""
        return replace(
            self, flops=self.flops * factor, memory_words=self.memory_words * factor
        )


@dataclass(frozen=True)
class SerialSection:
    """Work executed by a single CE.

    In a restructured (parallel-layout) program the serial remainder still
    reads the arrays where the parallel loops put them -- a serial section
    over GLOBAL data pays global latency and benefits from prefetch, exactly
    like a loop body does.
    """

    work: Work
    placement: Placement = Placement.CLUSTER
    prefetchable_fraction: float = 0.5
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.prefetchable_fraction <= 1.0:
            raise ValueError("prefetchable_fraction must be in [0, 1]")


@dataclass(frozen=True)
class Doall:
    """A parallel loop.

    Attributes:
        kind: CDOALL / SDOALL / XDOALL.
        trip_count: Number of iterations.
        body: Work per iteration, or nested constructs (an SDOALL usually
            nests a CDOALL; see Section 3.2).
        placement: Where the dominant data of the body lives.
        self_scheduled: Iterations claimed dynamically (needs cheap
            synchronization) vs statically pre-assigned.
        prefetchable_fraction: Fraction of global-memory words the compiler
            can cover with PFU blocks (vector accesses with known stride).
        instances: How many times this loop starts dynamically over the run
            (each start pays the loop start-up latency).
        label: Diagnostic name.
    """

    kind: LoopKind
    trip_count: int
    body: Union[Work, Sequence[object]]
    placement: Placement = Placement.CLUSTER
    self_scheduled: bool = True
    prefetchable_fraction: float = 0.8
    instances: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.trip_count < 1:
            raise ValueError(f"trip count must be >= 1, got {self.trip_count}")
        if not 0.0 <= self.prefetchable_fraction <= 1.0:
            raise ValueError("prefetchable_fraction must be in [0, 1]")
        if self.instances < 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")

    @property
    def nested(self) -> bool:
        return not isinstance(self.body, Work)


@dataclass(frozen=True)
class Barrier:
    """A synchronization barrier.

    ``multicluster=True`` crosses clusters through global memory (the
    expensive FL052 case); otherwise the concurrency-control hardware in one
    cluster handles it.
    """

    multicluster: bool = True
    count: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("barrier count must be >= 1")


@dataclass(frozen=True)
class Reduction:
    """A global reduction of ``elements`` partial values."""

    elements: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.elements < 1:
            raise ValueError("reduction needs >= 1 element")


@dataclass(frozen=True)
class IOSection:
    """File input/output (the BDNA formatted-I/O story of Section 4.2)."""

    bytes: float
    formatted: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.bytes < 0:
            raise ValueError("I/O volume cannot be negative")


@dataclass(frozen=True)
class VirtualMemoryActivity:
    """Extra paging / TLB-fault time incurred only by multicluster runs.

    Section 4.2's TRFD analysis found the multicluster version "spending
    close to 50% of the time in virtual memory activity" because each
    additional cluster TLB-miss faults on pages whose PTEs are already
    valid in global memory.  A distributed-memory rewrite removes it.
    """

    seconds: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("paging time cannot be negative")


@dataclass(frozen=True)
class DataMove:
    """An explicit block move between global and cluster memory."""

    words: float
    to_cluster: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.words < 0:
            raise ValueError("move volume cannot be negative")


Construct = Union[
    SerialSection,
    Doall,
    Barrier,
    Reduction,
    IOSection,
    DataMove,
    VirtualMemoryActivity,
]
