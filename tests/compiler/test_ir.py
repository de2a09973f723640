"""Tests for the affine loop-nest IR."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler.ir import (
    ArrayRef,
    Assignment,
    Loop,
    LoopNest,
    ScalarRef,
    const,
    var,
)
from repro.errors import CompilerError


class TestAffineAlgebra:
    def test_addition_merges_coefficients(self):
        expr = var("i") + var("i") + 3
        assert expr.coefficient("i") == 2
        assert expr.constant == 3

    def test_subtraction_cancels(self):
        expr = (var("i") + 5) - var("i")
        assert not expr.variables
        assert expr.constant == 5

    def test_scalar_multiplication(self):
        expr = (var("i") + 2) * 3
        assert expr.coefficient("i") == 3
        assert expr.constant == 6

    def test_right_operators(self):
        assert (2 + var("i")).constant == 2
        assert (2 * var("i")).coefficient("i") == 2
        assert (10 - var("i")).coefficient("i") == -1

    def test_non_integer_scale_rejected(self):
        with pytest.raises(CompilerError):
            var("i") * 1.5  # type: ignore[operator]

    def test_substitute(self):
        expr = 2 * var("k") + var("i")
        result = expr.substitute("k", var("i") + 1)
        assert result.coefficient("i") == 3
        assert result.constant == 2
        assert result.coefficient("k") == 0

    def test_substitute_absent_variable_is_noop(self):
        expr = var("i") + 1
        assert expr.substitute("k", const(5)) == expr

    @given(
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(-50, 50), st.integers(-50, 50),
    )
    def test_evaluation_homomorphism(self, a, b, i, j):
        expr = a * var("i") + b * var("j") + 7

        def evaluate(e):
            return sum(c * {"i": i, "j": j}[n] for n, c in e.coefficients) + e.constant

        other = 3 * var("i") - 2
        assert evaluate(expr + other) == evaluate(expr) + evaluate(other)
        assert evaluate(expr * 4) == evaluate(expr) * 4


class TestLoop:
    def test_trip_count_constant_bounds(self):
        loop = Loop("i", const(1), const(100))
        assert loop.trip_count() == 100

    def test_trip_count_with_step(self):
        loop = Loop("i", const(0), const(9), step=2)
        assert loop.trip_count() == 5

    def test_trip_count_symbolic_needs_symbols(self):
        loop = Loop("i", const(1), var("n"))
        assert loop.trip_count() is None
        assert loop.trip_count({"n": 64}) == 64

    def test_empty_range(self):
        loop = Loop("i", const(10), const(5))
        assert loop.trip_count() == 0

    def test_step_validation(self):
        with pytest.raises(CompilerError):
            Loop("i", const(1), const(10), step=0)

    def test_statements_traverses_nesting(self):
        inner_stmt = Assignment(lhs=ArrayRef("a", (var("j"),), True))
        inner = Loop("j", const(1), const(4), body=(inner_stmt,))
        outer_stmt = Assignment(lhs=ScalarRef("s", True))
        outer = Loop("i", const(1), const(4), body=(outer_stmt, inner))
        assert list(outer.statements()) == [outer_stmt, inner_stmt]
        assert list(outer.inner_loops()) == [inner]


class TestAssignment:
    def test_lhs_forced_to_write(self):
        statement = Assignment(lhs=ScalarRef("x"))
        assert statement.lhs.is_write

    def test_statement_ids_unique(self):
        a = Assignment(lhs=ScalarRef("x", True))
        b = Assignment(lhs=ScalarRef("x", True))
        assert a.statement_id != b.statement_id


class TestLoopNest:
    def test_symbols_flow_to_trip_count(self):
        nest = LoopNest("n", Loop("i", const(1), var("n")), symbols={"n": 32})
        assert nest.trip_count() == 32
