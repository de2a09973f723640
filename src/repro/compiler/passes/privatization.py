"""Array and scalar privatization.

"In all Perfect programs we have found loop-local data placement to be an
important factor" (Section 3.2) -- and privatization is the transformation
that legalizes it: a variable whose every use within an iteration is
preceded by a definition in that same iteration can be given one private
copy per processor, removing the false loop-carried dependence.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set

from repro.compiler.ir import ArrayRef, Loop


def _first_access_is_write(loop: Loop) -> Dict[str, bool]:
    """Per variable: is the lexically first access in an iteration a write?

    Lexical order approximates execution order inside one iteration (the
    IR has no control flow), which is the classical sufficient condition
    for privatization.
    """
    first: Dict[str, bool] = {}
    for statement in loop.statements():
        # Reads of a statement happen before its write.
        for ref in statement.reads:
            name = ref.array if isinstance(ref, ArrayRef) else ref.name
            first.setdefault(name, False)
        lhs = statement.lhs
        name = lhs.array if isinstance(lhs, ArrayRef) else lhs.name
        first.setdefault(name, True)
    return first


def _varies_with(ref: ArrayRef, index: str) -> bool:
    return any(s.coefficient(index) != 0 for s in ref.subscripts)


def privatize(loop: Loop) -> Loop:
    """Mark privatizable variables of ``loop`` in its ``private`` tuple.

    Candidates:
    * scalars defined before use in the iteration (classic scalar
      expansion, realized as loop-local declarations on Cedar);
    * arrays whose references do not vary with the loop index (per-
      iteration work arrays) and are defined before use.
    """
    first_write = _first_access_is_write(loop)
    read_only: Set[str] = set()
    written: Set[str] = set()
    arrays_varying: Set[str] = set()
    for statement in loop.statements():
        for ref in statement.references:
            if isinstance(ref, ArrayRef):
                name = ref.array
                if _varies_with(ref, loop.index):
                    arrays_varying.add(name)
            else:
                name = ref.name
            if ref.is_write:
                written.add(name)
            else:
                read_only.add(name)

    private: List[str] = []
    for name in sorted(written):
        if name == loop.index:
            continue
        if not first_write.get(name, False):
            continue  # upward-exposed read: not privatizable
        if name in arrays_varying:
            continue  # indexed by the parallel loop: not a work array
        private.append(name)
    if not private:
        return loop
    return replace(loop, private=tuple(private))
