"""The 1988-KAP-level automatic parallelizer (Section 3.3, first phase).

"In the first phase we retargeted an early copy of KAP restructurer to
Cedar (KAP from KAI as released in 1988) ... with the original compiler
most programs have very limited performance improvement."  The model of
that compiler: dependence-test-based DOALL detection only -- no array
privatization, no parallel reductions, no induction substitution, no
run-time tests.  Scalar temporaries and accumulations therefore serialize
most real loops, which is exactly the paper's observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Loop, LoopNest
from repro.compiler.passes.parallelize import parallelize


@dataclass
class KapResult:
    """What KAP made of one loop nest."""

    nest: LoopNest
    loop: Loop

    @property
    def parallelized(self) -> bool:
        return self.loop.parallel


class KapCompiler:
    """Dependence tests and DOALL marking; nothing else."""

    name = "kap-1988"

    def compile(self, nest: LoopNest) -> KapResult:
        loop = parallelize(nest.root, nest.symbols, allow_runtime_tests=False)
        return KapResult(nest=nest, loop=loop)
