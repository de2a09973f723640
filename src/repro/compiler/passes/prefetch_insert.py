"""Compiler-directed prefetch insertion (Section 3.2, "Data Prefetching").

"The compiler backend inserts an explicit prefetch instruction, of length
32 words or less, before each vector operation which has a global memory
operand.  The compiler then attempts to float the prefetch instructions in
order to overlap prefetch operations with computation.  This rarely
succeeds and thus most of the time prefetch is started immediately before
the vector instruction."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.compiler.ir import ArrayRef, Loop

#: Compiler-generated prefetches cover at most 32 words.
MAX_PREFETCH_WORDS = 32


@dataclass(frozen=True)
class PrefetchDirective:
    """One inserted prefetch: which operand, how long, and whether floated."""

    array: str
    statement_id: int
    length: int
    stride: int
    floated: bool

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_PREFETCH_WORDS:
            raise ValueError(
                f"prefetch length must be 1..{MAX_PREFETCH_WORDS}, "
                f"got {self.length}"
            )


def _innermost_index(loop: Loop) -> str:
    inner = loop
    for candidate in loop.inner_loops():
        inner = candidate
    return inner.index


def insert_prefetches(
    loop: Loop,
    global_arrays: Set[str],
    vector_length: int = MAX_PREFETCH_WORDS,
) -> List[PrefetchDirective]:
    """Plan prefetches for global-memory vector operands of ``loop``.

    A read of a global array whose innermost subscript coefficient is a
    (small) constant stride gets a prefetch of up to 32 words.  A prefetch
    *floats* -- starts ahead of the vector operation, fully overlapping --
    only when the same statement also has non-global operands to chew on;
    otherwise it issues immediately before the vector instruction (the
    common case the paper reports).
    """
    index = _innermost_index(loop)
    trip = loop.trip_count() or vector_length
    directives: List[PrefetchDirective] = []
    seen: Set[tuple] = set()
    for statement in loop.statements():
        has_local_operand = any(
            isinstance(ref, ArrayRef) and ref.array not in global_arrays
            for ref in statement.reads
        )
        for ref in statement.reads:
            if not isinstance(ref, ArrayRef) or ref.array not in global_arrays:
                continue
            stride = _vector_stride(ref, index)
            if stride is None:
                continue  # scalar or gather access: not prefetchable
            key = (statement.statement_id, ref.array, stride)
            if key in seen:
                continue
            seen.add(key)
            directives.append(
                PrefetchDirective(
                    array=ref.array,
                    statement_id=statement.statement_id,
                    length=min(MAX_PREFETCH_WORDS, vector_length, trip),
                    stride=stride,
                    floated=has_local_operand,
                )
            )
    return directives


def _vector_stride(ref: ArrayRef, index: str) -> Optional[int]:
    """The access stride along the vectorized index, if affine in it."""
    strides = [s.coefficient(index) for s in ref.subscripts]
    nonzero = [s for s in strides if s != 0]
    if not nonzero:
        return None
    if len(nonzero) > 1:
        return None  # coupled subscripts: treat as non-streaming
    return nonzero[0]
