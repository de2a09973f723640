"""Tests for the memory-module synchronization processors."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.sync_processor import OperateOp, SyncProcessor
from repro.hardware.sync_processor import TestOp as SyncTestOp
from repro.trace import Tracer


class TestTestAndSet:
    def test_first_acquisition_succeeds(self):
        sync = SyncProcessor()
        outcome = sync.test_and_set(100)
        assert outcome.test_passed
        assert outcome.old_value == 0
        assert outcome.new_value == 1

    def test_second_acquisition_fails(self):
        sync = SyncProcessor()
        sync.test_and_set(100)
        outcome = sync.test_and_set(100)
        assert not outcome.test_passed
        assert outcome.old_value == 1

    def test_release_and_reacquire(self):
        sync = SyncProcessor()
        sync.test_and_set(100)
        sync.write(100, 0)
        assert sync.test_and_set(100).test_passed


class TestTestAndOperate:
    def test_add(self):
        sync = SyncProcessor()
        outcome = sync.test_and_operate(5, SyncTestOp.ALWAYS, 0, OperateOp.ADD, 7)
        assert outcome.new_value == 7
        assert sync.read(5) == 7

    def test_subtract(self):
        sync = SyncProcessor()
        sync.write(5, 10)
        outcome = sync.test_and_operate(
            5, SyncTestOp.ALWAYS, 0, OperateOp.SUBTRACT, 4
        )
        assert outcome.new_value == 6

    def test_read_does_not_modify(self):
        sync = SyncProcessor()
        sync.write(5, 3)
        outcome = sync.test_and_operate(5, SyncTestOp.ALWAYS, 0, OperateOp.READ)
        assert outcome.old_value == 3
        assert sync.read(5) == 3

    def test_failed_test_leaves_memory_unchanged(self):
        sync = SyncProcessor()
        sync.write(5, 10)
        outcome = sync.test_and_operate(5, SyncTestOp.LT, 10, OperateOp.ADD, 1)
        assert not outcome.test_passed
        assert sync.read(5) == 10

    def test_ge_gate_for_dependence_enforcement(self):
        # The [ZhYe87] pattern: proceed when the producer's counter reached
        # the needed value.
        sync = SyncProcessor()
        sync.write(7, 3)
        assert sync.test_and_operate(7, SyncTestOp.GE, 3, OperateOp.READ).test_passed
        assert not sync.test_and_operate(7, SyncTestOp.GE, 4, OperateOp.READ).test_passed

    @pytest.mark.parametrize(
        "op,operand,expected",
        [
            (OperateOp.AND, 0b1100, 0b1000),
            (OperateOp.OR, 0b0001, 0b1011),
            (OperateOp.XOR, 0b1111, 0b0101),
            (OperateOp.WRITE, 42, 42),
        ],
    )
    def test_logical_and_write_ops(self, op, operand, expected):
        sync = SyncProcessor()
        sync.write(1, 0b1010)
        assert sync.test_and_operate(1, SyncTestOp.ALWAYS, 0, op, operand).new_value == expected

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_add_wraps_at_32_bits(self, start, operand):
        sync = SyncProcessor()
        sync.write(9, start)
        outcome = sync.test_and_operate(9, SyncTestOp.ALWAYS, 0, OperateOp.ADD, operand)
        assert outcome.new_value == (start + operand) % 2**32

    @given(st.sampled_from(list(SyncTestOp)), st.integers(0, 100), st.integers(0, 100))
    def test_relational_tests_match_python(self, test, value, key):
        import operator
        sync = SyncProcessor()
        sync.write(2, value)
        outcome = sync.test_and_operate(2, test, key, OperateOp.READ)
        expected = {
            SyncTestOp.ALWAYS: lambda a, b: True,
            SyncTestOp.EQ: operator.eq, SyncTestOp.NE: operator.ne,
            SyncTestOp.LT: operator.lt, SyncTestOp.LE: operator.le,
            SyncTestOp.GT: operator.gt, SyncTestOp.GE: operator.ge,
        }[test](value, key)
        assert outcome.test_passed == expected

    def test_operation_counter(self):
        tracer = Tracer()
        sync = SyncProcessor(tracer=tracer)
        sync.test_and_set(0)
        sync.test_and_operate(1, SyncTestOp.ALWAYS, 0, OperateOp.ADD, 1)
        assert tracer.counter_totals() == {
            "sync": {"test_and_set": 1, "test_and_operate": 1}
        }
