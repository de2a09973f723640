"""The automatable restructuring pipeline (Section 3.3, second phase).

Applies, in order: advanced induction-variable substitution, array/scalar
privatization, parallel-reduction recognition, parallelization with
run-time dependence tests, balanced stripmining, and prefetch insertion --
then lowers the result to the :mod:`repro.lang` constructs the machine
model executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.compiler.ir import ArrayRef, Loop, LoopNest
from repro.compiler.passes.induction import substitute_induction_variables
from repro.compiler.passes.parallelize import parallelize
from repro.compiler.passes.prefetch_insert import (
    PrefetchDirective,
    insert_prefetches,
)
from repro.compiler.passes.privatization import privatize
from repro.compiler.passes.reductions import recognize_reductions
from repro.compiler.passes.runtime_test import insert_runtime_tests
from repro.compiler.passes.stripmine import Strip, balanced_stripmine
from repro.lang.loops import Doall, LoopKind, Work
from repro.lang.placement import Placement


@dataclass
class CompilationReport:
    """What the restructurer did to one loop nest."""

    nest: LoopNest
    loop: Loop
    applied: List[str] = field(default_factory=list)
    strips: Optional[List[Strip]] = None
    prefetches: List[PrefetchDirective] = field(default_factory=list)

    @property
    def parallelized(self) -> bool:
        return self.loop.parallel


class CedarRestructurer:
    """The automatable pipeline."""

    name = "cedar-automatable"

    def __init__(self, processors: int = 32) -> None:
        if processors < 1:
            raise ValueError(f"processors must be >= 1, got {processors}")
        self.processors = processors

    def compile(
        self,
        nest: LoopNest,
        global_arrays: Optional[Set[str]] = None,
    ) -> CompilationReport:
        report = CompilationReport(nest=nest, loop=nest.root)
        loop = nest.root

        transformed = substitute_induction_variables(loop)
        if transformed is not loop:
            report.applied.append("induction-substitution")
        loop = transformed

        transformed = privatize(loop)
        if transformed.private:
            report.applied.append(
                "privatization(" + ", ".join(transformed.private) + ")"
            )
        loop = transformed

        transformed = recognize_reductions(loop)
        if transformed.reductions:
            report.applied.append(
                "reductions(" + ", ".join(transformed.reductions) + ")"
            )
        loop = transformed

        loop = parallelize(loop, nest.symbols)
        if not loop.parallel:
            loop = insert_runtime_tests(loop, nest.symbols)
            if loop.needs_runtime_test:
                report.applied.append("runtime-dependence-test")

        if loop.parallel:
            report.applied.append("parallelize")
            trip = loop.trip_count(nest.symbols)
            if trip is not None:
                loop, strips = balanced_stripmine(
                    loop.with_body(loop.body),
                    min(self.processors, max(trip, 1)),
                    nest.symbols,
                )
                report.strips = strips
                report.applied.append("balanced-stripmine")
            report.prefetches = insert_prefetches(
                loop,
                global_arrays
                if global_arrays is not None
                else self._default_globals(loop),
            )
            if report.prefetches:
                report.applied.append(
                    f"prefetch-insertion({len(report.prefetches)})"
                )
        report.loop = loop
        return report

    @staticmethod
    def _default_globals(loop: Loop) -> Set[str]:
        """Arrays indexed by the parallel loop are shared, hence GLOBAL."""
        shared: Set[str] = set()
        for statement in loop.statements():
            for ref in statement.references:
                if isinstance(ref, ArrayRef) and any(
                    s.coefficient(loop.index) != 0 for s in ref.subscripts
                ):
                    shared.add(ref.array)
        return shared

    # -- lowering -----------------------------------------------------------

    def lower(
        self,
        report: CompilationReport,
        flops_per_iteration: float = 10.0,
        words_per_iteration: float = 6.0,
    ) -> Doall:
        """Lower a parallelized nest to a lang-level DOALL for the model."""
        loop = report.loop
        if not loop.parallel:
            raise ValueError(
                f"loop nest {report.nest.name!r} was not parallelized"
            )
        trip = loop.trip_count(report.nest.symbols) or 1
        prefetchable = 0.0
        if report.prefetches:
            unit_stride = sum(1 for p in report.prefetches if abs(p.stride) == 1)
            prefetchable = 0.5 + 0.5 * unit_stride / len(report.prefetches)
        return Doall(
            kind=LoopKind.XDOALL,
            trip_count=trip,
            body=Work(
                flops=flops_per_iteration,
                memory_words=words_per_iteration,
                vector_fraction=0.9,
                vector_length=min(32, trip),
            ),
            placement=Placement.GLOBAL if report.prefetches else Placement.CLUSTER,
            prefetchable_fraction=prefetchable,
            label=report.nest.name,
        )
