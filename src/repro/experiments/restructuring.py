"""Section 3.3 in miniature: KAP-1988 vs the automatable restructurer.

Runs both compilers over a gallery of loop nests exercising each named
transformation and reports who parallelizes what -- the compiler-level
ground truth behind Table 3's "Compiled by Kap/Cedar" vs "Automatable"
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compiler import CedarRestructurer, KapCompiler
from repro.compiler.ir import (
    ArrayRef,
    Assignment,
    Loop,
    LoopNest,
    ScalarRef,
    const,
    var,
)
from repro.core.report import format_table
from repro.metrics.headline import HeadlineMetric


def gallery() -> List[LoopNest]:
    """Loop nests exercising each Section 3.3 transformation."""
    i = var("i")
    nests = []

    # Plain vector loop: both compilers handle it.
    nests.append(
        LoopNest(
            "vector-add",
            Loop(
                "i", const(1), const(4096),
                body=(
                    Assignment(
                        lhs=ArrayRef("c", (i,), True),
                        reads=(ArrayRef("a", (i,)), ArrayRef("b", (i,))),
                    ),
                ),
            ),
        )
    )

    # Scalar temporary: needs privatization.
    nests.append(
        LoopNest(
            "scalar-temp",
            Loop(
                "i", const(1), const(2048),
                body=(
                    Assignment(lhs=ScalarRef("t", True),
                               reads=(ArrayRef("a", (i,)),)),
                    Assignment(lhs=ArrayRef("b", (i,), True),
                               reads=(ScalarRef("t"),)),
                ),
            ),
        )
    )

    # Sum reduction: needs parallel reductions.
    nests.append(
        LoopNest(
            "dot-product",
            Loop(
                "i", const(1), const(8192),
                body=(
                    Assignment(
                        lhs=ScalarRef("s", True),
                        reads=(ScalarRef("s"), ArrayRef("a", (i,)),
                               ArrayRef("b", (i,))),
                        reduction_op="+",
                    ),
                ),
            ),
        )
    )

    # Induction variable: needs substitution.
    k = var("k")
    nests.append(
        LoopNest(
            "packing",
            Loop(
                "i", const(1), const(1024),
                body=(
                    Assignment(lhs=ScalarRef("k", True), reads=(ScalarRef("k"),),
                               reduction_op="+", increment=2),
                    Assignment(lhs=ArrayRef("out", (k,), True),
                               reads=(ArrayRef("a", (i,)),)),
                ),
            ),
        )
    )

    # Symbolic subscript: needs a run-time dependence test.
    m = var("m")
    nests.append(
        LoopNest(
            "symbolic-stride",
            Loop(
                "i", const(1), const(512),
                body=(
                    Assignment(
                        lhs=ArrayRef("x", (i + m,), True),
                        reads=(ArrayRef("x", (i,)),),
                    ),
                ),
            ),
        )
    )

    # True recurrence: neither compiler may parallelize it.
    nests.append(
        LoopNest(
            "recurrence",
            Loop(
                "i", const(2), const(4096),
                body=(
                    Assignment(
                        lhs=ArrayRef("x", (i,), True),
                        reads=(ArrayRef("x", (i - 1,)),),
                    ),
                ),
            ),
        )
    )
    return nests


@dataclass(frozen=True)
class RestructuringResult:
    rows: Tuple[Tuple[str, bool, bool, str], ...]  # nest, kap, auto, transforms

    def kap_count(self) -> int:
        return sum(1 for _, kap, _, _ in self.rows if kap)

    def automatable_count(self) -> int:
        return sum(1 for _, _, auto, _ in self.rows if auto)


def run() -> RestructuringResult:
    kap = KapCompiler()
    restructurer = CedarRestructurer(processors=32)
    rows = []
    for nest in gallery():
        kap_result = kap.compile(nest)
        auto_result = restructurer.compile(nest)
        rows.append(
            (
                nest.name,
                kap_result.parallelized,
                auto_result.parallelized,
                ", ".join(auto_result.applied) or "-",
            )
        )
    return RestructuringResult(rows=tuple(rows))


def headline_metrics(result: RestructuringResult) -> List[HeadlineMetric]:
    """Section 3.3 in two counts: KAP-1988 parallelizes only the clean
    vector loop; the automatable pipeline everything but the recurrence."""
    total = len(result.rows)
    return [
        HeadlineMetric(
            name="kap_parallelized",
            value=float(result.kap_count()),
            unit="nests",
            target=1.0,
            note=f"Section 3.3 gallery, KAP-1988 ({total} nests)",
        ),
        HeadlineMetric(
            name="automatable_parallelized",
            value=float(result.automatable_count()),
            unit="nests",
            target=float(total - 1),
            note=f"Section 3.3 gallery, automatable pipeline ({total} nests)",
        ),
    ]


#: The Section 3.3 transformations the gallery must see applied.
PASSES = (
    "privatization", "reductions", "induction", "runtime-dependence-test",
    "balanced-stripmine", "prefetch-insertion",
)


def claims(result: RestructuringResult) -> Dict[str, bool]:
    """KAP-1988 parallelizes only the dependence-free loop; the automatable
    pipeline everything but the true recurrence, with every named pass."""
    transforms = " ".join(t for _, _, _, t in result.rows)
    outcome = {
        "Section 3.3: KAP-1988 parallelizes exactly 1 nest":
            result.kap_count() == 1,
        "Section 3.3: the automatable pipeline parallelizes every nest "
        "but the recurrence": result.automatable_count() == len(result.rows) - 1,
    }
    for name in PASSES:
        outcome[f"Section 3.3: the automatable pipeline applies {name}"] = (
            name in transforms
        )
    return outcome


def render(result: RestructuringResult) -> str:
    rows = [
        (name, "yes" if kap else "no", "yes" if auto else "no", transforms)
        for name, kap, auto, transforms in result.rows
    ]
    table = format_table(
        headers=("loop nest", "KAP-1988", "automatable", "transformations"),
        rows=rows,
        title="Section 3.3: what each compiler parallelizes",
    )
    return (
        table
        + f"\nKAP parallelizes {result.kap_count()}/{len(result.rows)}; "
        f"the automatable pipeline {result.automatable_count()}/{len(result.rows)}"
    )
