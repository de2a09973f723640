"""Advanced induction-variable substitution.

A scalar updated by a loop-invariant amount every iteration (``k = k + 3``)
serializes the loop, but its value is the closed form
``k0 + 3 * (i - lower)``; substituting that form into every subscript that
uses it removes the dependence.  "Advanced" in the paper means doing this
through symbolic increments and across statements -- our IR captures the
single-increment core of the transformation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.compiler.ir import AffineExpr, ArrayRef, Loop, ScalarRef, Statement, var


def _find_induction_updates(loop: Loop) -> Dict[str, int]:
    """Scalars updated exactly once per iteration by an integer constant."""
    counts: Dict[str, int] = {}
    increments: Dict[str, int] = {}
    for statement in loop.body:  # only top-level updates are substituted
        if isinstance(statement, Loop):
            continue
        lhs = statement.lhs
        if not isinstance(lhs, ScalarRef):
            continue
        if statement.increment is None or statement.reduction_op != "+":
            continue
        counts[lhs.name] = counts.get(lhs.name, 0) + 1
        increments[lhs.name] = statement.increment
    return {
        name: inc
        for name, inc in increments.items()
        if counts[name] == 1 and name != loop.index
    }


def substitute_induction_variables(loop: Loop) -> Loop:
    """Rewrite subscripts using closed forms and drop the updates.

    The closed form assumes the variable enters the loop holding its
    symbolic initial value (kept under its own name), i.e.
    ``k == k_initial + inc * (i - lower)`` *after* the update in iteration
    ``i`` when the update precedes its uses; Cedar Fortran codes of this
    shape update the induction variable at the top of the body, which is
    the convention we implement.
    """
    inductions = _find_induction_updates(loop)
    if not inductions:
        return loop

    def closed_form(name: str, increment: int) -> AffineExpr:
        # k_initial + inc * (i - lower + 1), update-at-top convention.
        i = var(loop.index)
        return var(name) + (i - loop.lower + 1) * increment

    def rewrite_expr(expr: AffineExpr) -> AffineExpr:
        result = expr
        for name, increment in inductions.items():
            if result.coefficient(name) != 0:
                # Substitute the closed form for k, keeping `name` as the
                # symbolic initial value.
                coeff = result.coefficient(name)
                without = result.substitute(name, AffineExpr())
                result = without + closed_form(name, increment) * coeff
        return result

    new_body: List[Statement] = []
    for statement in loop.body:
        if isinstance(statement, Loop):
            new_body.append(substitute_induction_variables(statement))
            continue
        lhs = statement.lhs
        if (
            isinstance(lhs, ScalarRef)
            and lhs.name in inductions
            and statement.increment is not None
        ):
            continue  # the update disappears
        new_refs = []
        for ref in statement.reads:
            if isinstance(ref, ArrayRef):
                new_refs.append(
                    replace(
                        ref,
                        subscripts=tuple(rewrite_expr(s) for s in ref.subscripts),
                    )
                )
            else:
                new_refs.append(ref)
        new_lhs = statement.lhs
        if isinstance(new_lhs, ArrayRef):
            new_lhs = replace(
                new_lhs,
                subscripts=tuple(rewrite_expr(s) for s in new_lhs.subscripts),
            )
        new_body.append(
            replace(statement, lhs=new_lhs, reads=tuple(new_refs))
        )
    return loop.with_body(new_body)
