"""CG: a simple conjugate-gradient solver on a 5-diagonal matrix.

Used twice by the paper: in Table 2 (global-data-with-prefetch latency
behaviour at 8/16/32 CEs) and for PPT4, where CG performance is measured
"while varying the number of processors from 2 to 32.  This computation
involves 5-diagonal matrix-vector products as well as vector and reduction
operations of size N, 1K <= N <= 172K."
"""

from __future__ import annotations

from typing import Optional

from repro.config import CedarConfig, active_config
from repro.hardware.ce import (
    ArmFirePrefetch,
    Compute,
    ComputationalElement,
    ConsumePrefetch,
    GlobalStores,
    SyncInstruction,
)
from repro.hardware.sync_processor import OperateOp
from repro.kernels.common import KernelRun, MeasuredKernel, ce_base_address, run_measured

#: Flops in one CG iteration over an N-point 5-diagonal system: the matvec
#: (9N) plus two dot products (4N) and three AXPYs (6N).
FLOPS_PER_POINT = 19.0


#: Global-memory vector streams one CG iteration reads per strip: the five
#: matrix diagonals and x for the matvec, r and z for the dot products, and
#: p plus the AXPY operands.
READ_STREAMS_PER_STRIP = 9

#: Vectors written back per strip: q (= A p), x, r, p.
WRITE_STREAMS_PER_STRIP = 4

#: Scalar bookkeeping per strip (cycles): loop control, stripmine branches,
#: address arithmetic, and the scalar recurrence updates of the CG
#: iteration, executed on the 68020-class scalar unit.  Contention-
#: independent, so it costs the one-CE baseline and the 32-CE run alike.
SCALAR_OVERHEAD_PER_STRIP = 600


def cg_kernel(config: CedarConfig, points_per_ce: int, num_ces: int):
    """One CG iteration over this CE's share of the vectors.

    The matvec streams the five diagonals and x through 32-word prefetches
    with chained multiply-adds; the dot products stream r and z; the AXPYs
    re-stream their operands and write x, r, p and q back.  A slice of the
    arithmetic is register-register ("the presence of register-register
    vector operations which reduce the demand on the memory system" is why
    CG degrades less than VL/RK in Table 2), and the two reduction results
    are combined with Cedar synchronization instructions.
    """
    block = config.prefetch.compiler_block_words

    def factory(ce: ComputationalElement):
        bases = [ce_base_address(ce, region=r) for r in range(READ_STREAMS_PER_STRIP)]
        out_bases = [
            ce_base_address(ce, region=READ_STREAMS_PER_STRIP + r)
            for r in range(WRITE_STREAMS_PER_STRIP)
        ]
        strips = max(1, points_per_ce // block)
        for s in range(strips):
            offset = s * block
            # Eight streams carry chained multiply-adds (16 flops/point);
            # the ninth feeds register-resident operands.
            for stream, base in enumerate(bases):
                handle = yield ArmFirePrefetch(
                    length=block, stride=1, start_address=base + offset
                )
                flops = 2.0 if stream < 8 else 0.0
                yield ConsumePrefetch(handle, flops_per_element=flops)
            # Register-register remainder: 3 flops/point.
            yield Compute(12 + block, flops=3.0 * block)
            # Scalar loop control and address arithmetic.
            yield Compute(SCALAR_OVERHEAD_PER_STRIP)
            for base in out_bases:
                yield GlobalStores(start_address=base + offset, length=block)
        # Two reductions per iteration: combine partials in global memory
        # via Test-And-Add, then read the result back.
        for reduction in range(2):
            yield SyncInstruction(
                address=1009 + reduction, op=OperateOp.ADD, operand=1
            )

    return factory


#: Strip-simulation cap: beyond this many strips per CE the kernel is in
#: steady state and further strips cost the same marginal time.
SIM_STRIP_CAP = 10

#: Parallel-loop starts per CG iteration: the matvec, two dot products and
#: three AXPYs each spread one XDOALL through the run-time library, paying
#: the 90us start-up latency apiece.
LOOP_STARTS_PER_ITERATION = 6


def measure_cg(
    num_ces: int,
    points: int,
    config: Optional[CedarConfig] = None,
    max_strips: int = SIM_STRIP_CAP,
) -> KernelRun:
    """One CG iteration window over ``points`` unknowns on ``num_ces`` CEs.

    Large problems are truncated at ``max_strips`` strips per CE (the
    stream is stationary; see :func:`cg_time_cycles` for full-size timing).
    """
    if config is None:
        config = active_config()
    if points < num_ces:
        raise ValueError(f"problem size {points} smaller than CE count {num_ces}")
    per_ce = points // num_ces
    block = config.prefetch.compiler_block_words
    per_ce = min(per_ce, max_strips * block)
    kernel = MeasuredKernel(
        name="CG",
        factory=lambda cfg, n: cg_kernel(cfg, per_ce, n),
    )
    return run_measured(kernel, num_ces, config, warmup_fraction=0.2)


def cg_time_cycles(
    num_ces: int,
    points: int,
    config: Optional[CedarConfig] = None,
) -> float:
    """Cycles for one full CG iteration, extrapolating past the sim window.

    Simulates a half window and a full window at this CE count to separate
    the fixed overhead (loop startup, pipeline fill, reductions) from the
    marginal per-strip cost under contention, then extends linearly -- valid
    because the strip stream is stationary.  The global parallel-loop
    startup (90us XDOALL-style spread, Section 3.2) is added on top.
    """
    if config is None:
        config = active_config()
    block = config.prefetch.compiler_block_words
    strips_needed = max(1, (points // num_ces) // block)
    startup = LOOP_STARTS_PER_ITERATION * config.seconds_to_cycles(
        config.sync.xdoall_startup_seconds
    )
    if strips_needed <= SIM_STRIP_CAP:
        run = measure_cg(num_ces, points, config)
        return run.cycles + startup
    half = measure_cg(num_ces, num_ces * block * (SIM_STRIP_CAP // 2), config)
    full = measure_cg(num_ces, num_ces * block * SIM_STRIP_CAP, config)
    per_strip = (full.cycles - half.cycles) / (SIM_STRIP_CAP - SIM_STRIP_CAP // 2)
    fixed = full.cycles - SIM_STRIP_CAP * per_strip
    return fixed + strips_needed * per_strip + startup
