"""Synchronization processors in the global-memory modules (Section 2).

"Cedar implements a set of indivisible synchronization instructions in each
memory module ... performed by a special processor in each memory module."
A Cedar synchronization instruction is a *Test-And-Operate*: Test is any
relational operation on 32-bit data and Operate is a Read, Write, Add,
Subtract, or Logical operation, executed indivisibly when the test passes
(the [ZhYe87] scheme for enforcing data dependences).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Dict

from repro.hardware import sanitize


class TestOp(enum.Enum):
    """Relational tests available to Test-And-Operate."""

    ALWAYS = "always"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class OperateOp(enum.Enum):
    """Operations performed when the test succeeds."""

    READ = "read"
    WRITE = "write"
    ADD = "add"
    SUBTRACT = "subtract"
    AND = "and"
    OR = "or"
    XOR = "xor"


_TESTS: Dict[TestOp, Callable[[int, int], bool]] = {
    TestOp.ALWAYS: lambda value, key: True,
    TestOp.EQ: operator.eq,
    TestOp.NE: operator.ne,
    TestOp.LT: operator.lt,
    TestOp.LE: operator.le,
    TestOp.GT: operator.gt,
    TestOp.GE: operator.ge,
}

_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class SyncOutcome:
    """Result of one indivisible synchronization instruction.

    Attributes:
        test_passed: Whether the relational test succeeded.
        old_value: The 32-bit value read before any operation.
        new_value: The value stored afterwards (== old_value if unchanged).
    """

    test_passed: bool
    old_value: int
    new_value: int


class SyncProcessor:
    """The per-module processor executing sync instructions indivisibly.

    It owns the synchronization view of the module's words: a plain dict of
    32-bit integers keyed by word address.  Because the discrete-event
    simulator serializes each module, every call here is naturally atomic --
    exactly the property the hardware provides.
    """

    def __init__(self, tracer=None) -> None:
        self._words: Dict[int, int] = {}
        self.trace = tracer.if_enabled() if tracer is not None else None
        self._sanitizer = sanitize.current()

    def read(self, address: int) -> int:
        """Current 32-bit value at ``address`` (0 if never written)."""
        return self._words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self._words[address] = value & _MASK32

    def test_and_set(self, address: int) -> SyncOutcome:
        """Classic Test-And-Set: returns the old value, sets the word to 1."""
        if self.trace is not None:
            self.trace.count("sync", "test_and_set")
        old = self.read(address)
        self.write(address, 1)
        outcome = SyncOutcome(test_passed=(old == 0), old_value=old, new_value=1)
        if self._sanitizer is not None:
            self._sanitizer.check_sync(
                self, address, "test_and_set", None, 0, None, 0, outcome
            )
        return outcome

    def test_and_operate(
        self,
        address: int,
        test: TestOp,
        key: int,
        op: OperateOp,
        operand: int = 0,
    ) -> SyncOutcome:
        """Cedar's Test-And-Operate, indivisible at the module.

        The test compares the memory word against ``key``; only when it
        passes is the operation applied.
        """
        if self.trace is not None:
            self.trace.count("sync", "test_and_operate")
        old = self.read(address)
        if not _TESTS[test](old, key & _MASK32):
            outcome = SyncOutcome(test_passed=False, old_value=old, new_value=old)
        else:
            new = self._apply(op, old, operand & _MASK32)
            if op is not OperateOp.READ:
                self.write(address, new)
            outcome = SyncOutcome(
                test_passed=True, old_value=old, new_value=new & _MASK32
            )
        if self._sanitizer is not None:
            self._sanitizer.check_sync(
                self, address, "test_and_operate",
                test.value, key, op.value, operand, outcome,
            )
        return outcome

    @staticmethod
    def _apply(op: OperateOp, old: int, operand: int) -> int:
        if op is OperateOp.READ:
            return old
        if op is OperateOp.WRITE:
            return operand
        if op is OperateOp.ADD:
            return (old + operand) & _MASK32
        if op is OperateOp.SUBTRACT:
            return (old - operand) & _MASK32
        if op is OperateOp.AND:
            return old & operand
        if op is OperateOp.OR:
            return old | operand
        if op is OperateOp.XOR:
            return old ^ operand
        raise ValueError(f"unknown operate op {op!r}")
