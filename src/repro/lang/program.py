"""Whole programs in the CEDAR FORTRAN workload IR."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ProgramError
from repro.lang.loops import Construct, Doall, Work


@dataclass(frozen=True)
class Program:
    """A program: a named sequence of constructs.

    Attributes:
        name: Program name (e.g. a Perfect code).
        body: Top-level constructs, executed in order.
        flop_count: Canonical floating-point operation count of the whole
            program (the paper's monitor-derived count used for MFLOPS);
            defaults to the sum over the body when zero.
    """

    name: str
    body: Sequence[Construct]
    flop_count: float = 0.0

    def __post_init__(self) -> None:
        if not self.body:
            raise ProgramError(f"program {self.name!r} has an empty body")

    def total_flops(self) -> float:
        """The declared flop count, or the structural sum if undeclared."""
        if self.flop_count > 0:
            return self.flop_count
        return sum(_construct_flops(c) for c in self.body)


def walk(constructs: Sequence[Construct]) -> Iterator[Construct]:
    """Depth-first traversal of a construct sequence (nested DOALLs too)."""
    for construct in constructs:
        yield construct
        if isinstance(construct, Doall) and construct.nested:
            yield from walk(construct.body)  # type: ignore[arg-type]


def _construct_flops(construct: Construct) -> float:
    if isinstance(construct, Doall):
        if construct.nested:
            inner = sum(
                _construct_flops(c) for c in construct.body  # type: ignore[union-attr]
            )
            return construct.trip_count * inner
        assert isinstance(construct.body, Work)
        return construct.trip_count * construct.body.flops
    work = getattr(construct, "work", None)
    if isinstance(work, Work):
        return work.flops
    return 0.0
