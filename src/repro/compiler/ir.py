"""A small affine loop-nest IR for the restructuring compiler.

Programs are Fortran-style loop nests over array assignments whose
subscripts are affine in the loop indices (the domain classical dependence
tests cover).  The IR is deliberately minimal: enough to demonstrate every
transformation Section 3.3 lists on realistic kernels, not a full Fortran
front end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import CompilerError


# ---------------------------------------------------------------------------
# Affine expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeff_i * var_i) + constant`` over loop indices and symbols."""

    coefficients: Tuple[Tuple[str, int], ...] = ()
    constant: int = 0

    @property
    def coeff_map(self) -> Dict[str, int]:
        return dict(self.coefficients)

    def coefficient(self, name: str) -> int:
        return self.coeff_map.get(name, 0)

    @property
    def variables(self) -> List[str]:
        return [name for name, coeff in self.coefficients if coeff != 0]

    def __add__(self, other: Union["AffineExpr", int]) -> "AffineExpr":
        other = _as_expr(other)
        merged = self.coeff_map
        for name, coeff in other.coefficients:
            merged[name] = merged.get(name, 0) + coeff
        return AffineExpr(
            coefficients=tuple(
                sorted((n, c) for n, c in merged.items() if c != 0)
            ),
            constant=self.constant + other.constant,
        )

    def __radd__(self, other: int) -> "AffineExpr":
        return self + other

    def __sub__(self, other: Union["AffineExpr", int]) -> "AffineExpr":
        return self + (_as_expr(other) * -1)

    def __rsub__(self, other: int) -> "AffineExpr":
        return _as_expr(other) - self

    def __mul__(self, factor: int) -> "AffineExpr":
        if not isinstance(factor, int):
            raise CompilerError("affine expressions scale by integers only")
        return AffineExpr(
            coefficients=tuple(
                (n, c * factor) for n, c in self.coefficients if c * factor != 0
            ),
            constant=self.constant * factor,
        )

    def __rmul__(self, factor: int) -> "AffineExpr":
        return self * factor

    def substitute(self, name: str, value: "AffineExpr") -> "AffineExpr":
        """Replace a variable by an affine expression."""
        coeff = self.coefficient(name)
        if coeff == 0:
            return self
        without = AffineExpr(
            coefficients=tuple(
                (n, c) for n, c in self.coefficients if n != name
            ),
            constant=self.constant,
        )
        return without + value * coeff

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            (f"{c}*{n}" if c != 1 else n) for n, c in self.coefficients
        ]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


def var(name: str) -> AffineExpr:
    """An affine expression consisting of one variable."""
    return AffineExpr(coefficients=((name, 1),))


def const(value: int) -> AffineExpr:
    """A constant affine expression."""
    return AffineExpr(constant=value)


def _as_expr(value: Union[AffineExpr, int]) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return const(value)
    raise CompilerError(f"cannot coerce {value!r} to an affine expression")


# ---------------------------------------------------------------------------
# References and statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayRef:
    """A subscripted array reference."""

    array: str
    subscripts: Tuple[AffineExpr, ...]
    is_write: bool = False

    def __str__(self) -> str:  # pragma: no cover
        subs = ", ".join(str(s) for s in self.subscripts)
        return f"{self.array}({subs})"


@dataclass(frozen=True)
class ScalarRef:
    """A scalar variable reference."""

    name: str
    is_write: bool = False

    def __str__(self) -> str:  # pragma: no cover
        return self.name


Reference = Union[ArrayRef, ScalarRef]

_statement_ids = itertools.count()


@dataclass(frozen=True)
class Assignment:
    """``lhs = f(reads...)``.

    ``reduction_op`` marks ``s = s OP expr`` forms; when the update is by a
    loop-invariant integer amount, ``increment`` carries it (the shape the
    induction-variable substitution pass rewrites).
    """

    lhs: Reference
    reads: Tuple[Reference, ...] = ()
    reduction_op: Optional[str] = None  # "+", "*", "max", "min"
    increment: Optional[int] = None
    statement_id: int = field(default_factory=lambda: next(_statement_ids))

    def __post_init__(self) -> None:
        if not self.lhs.is_write:
            object.__setattr__(
                self, "lhs",
                replace(self.lhs, is_write=True),  # type: ignore[arg-type]
            )

    @property
    def references(self) -> Tuple[Reference, ...]:
        return (self.lhs,) + self.reads


Statement = Union[Assignment, "Loop"]


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    """A counted DO loop with unit logical structure.

    Attributes:
        index: Loop-index variable name.
        lower: Inclusive lower bound.
        upper: Inclusive upper bound (affine; symbolic bounds allowed).
        step: Positive integer step.
        body: Statements and nested loops.
        parallel: Set by the parallelizer when iterations are independent.
        private: Variables made private per iteration (privatization pass).
        reductions: Scalar names recognized as parallel reductions.
        needs_runtime_test: The parallelization is legal only under a
            run-time dependence test.
    """

    index: str
    lower: AffineExpr
    upper: AffineExpr
    step: int = 1
    body: Tuple[Statement, ...] = ()
    parallel: bool = False
    private: Tuple[str, ...] = ()
    reductions: Tuple[str, ...] = ()
    needs_runtime_test: bool = False

    def __post_init__(self) -> None:
        if self.step < 1:
            raise CompilerError("loop step must be a positive integer")

    def trip_count(self, symbols: Optional[Dict[str, int]] = None) -> Optional[int]:
        """Concrete trip count when the bounds are known."""
        lower = _evaluate(self.lower, symbols)
        upper = _evaluate(self.upper, symbols)
        if lower is None or upper is None:
            return None
        if upper < lower:
            return 0
        return (upper - lower) // self.step + 1

    def statements(self) -> Iterator[Assignment]:
        """All assignments in this loop, depth first."""
        for statement in self.body:
            if isinstance(statement, Loop):
                yield from statement.statements()
            else:
                yield statement

    def inner_loops(self) -> Iterator["Loop"]:
        for statement in self.body:
            if isinstance(statement, Loop):
                yield statement
                yield from statement.inner_loops()

    def with_body(self, body: Sequence[Statement]) -> "Loop":
        return replace(self, body=tuple(body))


def _evaluate(
    expr: AffineExpr, symbols: Optional[Dict[str, int]] = None
) -> Optional[int]:
    total = expr.constant
    for name, coeff in expr.coefficients:
        if symbols is None or name not in symbols:
            return None
        total += coeff * symbols[name]
    return total


@dataclass(frozen=True)
class LoopNest:
    """A named top-level loop nest (one subroutine's hot loop)."""

    name: str
    root: Loop
    symbols: Dict[str, int] = field(default_factory=dict)

    def trip_count(self) -> Optional[int]:
        return self.root.trip_count(self.symbols)
