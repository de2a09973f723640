"""TM: tridiagonal matrix-vector multiply (Table 2).

y(i) = a(i)*x(i-1) + b(i)*x(i) + c(i)*x(i+1).  Per 32-element strip the CE
prefetches the operand vectors with compiler-generated 32-word prefetches
and performs the multiplies/adds as register-register vector operations
between memory streams, which "reduce[s] the demand on the memory system" --
the reason TM degrades less than VL and RK in the paper's Table 2.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CedarConfig
from repro.hardware.ce import (
    ArmFirePrefetch,
    Compute,
    ComputationalElement,
    ConsumePrefetch,
    GlobalStores,
)
from repro.kernels.common import KernelRun, MeasuredKernel, ce_base_address, run_measured

#: Strips per CE in the measurement window.
DEFAULT_STRIPS = 10

#: Register-register vector-op cycles per strip: two chained multiply-adds
#: (for the b*x and c*x terms) run register-to-register after the streams
#: land, costing startup + length each.
REGISTER_OP_CYCLES_PER_STRIP = 2 * (12 + 32)


def tridiag_kernel(config: CedarConfig, strips: int = DEFAULT_STRIPS):
    """Kernel factory for the TM strip loop."""
    block = config.prefetch.compiler_block_words

    def factory(ce: ComputationalElement):
        x_base = ce_base_address(ce, region=0)
        diag_base = ce_base_address(ce, region=1)
        y_base = ce_base_address(ce, region=2)
        for strip in range(strips):
            offset = strip * block
            # Stream x(i-1..i+1 window) and the three diagonals; the x
            # stream and main diagonal come through the PFU, each fused
            # with one chained multiply-add (2 flops/element).
            x_handle = yield ArmFirePrefetch(
                length=block, stride=1, start_address=x_base + offset
            )
            yield ConsumePrefetch(x_handle, flops_per_element=2.0)
            d_handle = yield ArmFirePrefetch(
                length=block, stride=1, start_address=diag_base + offset
            )
            yield ConsumePrefetch(d_handle, flops_per_element=2.0)
            # Off-diagonal terms combine in registers: no memory traffic.
            yield Compute(REGISTER_OP_CYCLES_PER_STRIP, flops=2.0 * block)
            yield GlobalStores(start_address=y_base + offset, length=block)

    return factory


def measure_tridiag(
    num_ces: int,
    config: Optional[CedarConfig] = None,
    strips: int = DEFAULT_STRIPS,
) -> KernelRun:
    """Run TM on ``num_ces`` CEs for the Table 2 latency columns."""
    kernel = MeasuredKernel(
        name="TM",
        factory=lambda cfg, _n: tridiag_kernel(cfg, strips=strips),
    )
    return run_measured(kernel, num_ces, config, warmup_fraction=0.2)
