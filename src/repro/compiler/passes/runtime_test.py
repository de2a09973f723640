"""Run-time data dependence tests.

When subscripts involve values unknown at compile time (index arrays,
symbolic strides), the restructurer can emit both versions of the loop and
a cheap run-time check that picks the parallel one when the actual values
are conflict-free -- one of the automatable transformations the paper
credits for the Perfect improvements.
"""

from __future__ import annotations

from repro.compiler.ir import Loop
from repro.compiler.passes.parallelize import parallelize


def insert_runtime_tests(loop: Loop, symbols=None) -> Loop:
    """Parallelize ``loop`` under a run-time test when that is what it takes.

    Returns the loop with ``parallel=True, needs_runtime_test=True`` if the
    only obstacles are unprovable (symbolic) dependences; otherwise the
    loop is returned unchanged.
    """
    if loop.parallel:
        return loop
    with_tests = parallelize(loop, symbols, allow_runtime_tests=True)
    if with_tests.parallel and with_tests.needs_runtime_test:
        return with_tests
    return loop
