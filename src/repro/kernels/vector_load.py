"""VL: the vector-load kernel of Table 2.

A pure stream of compiler-style 32-word prefetches from global memory,
consumed by vector loads.  "VF is also dominated by memory accesses but
degrades less quickly [than RK] due to the smaller prefetch block which
reduces access intensity."
"""

from __future__ import annotations

from typing import Optional

from repro.config import CedarConfig
from repro.hardware.ce import ArmFirePrefetch, ComputationalElement, ConsumePrefetch
from repro.kernels.common import KernelRun, MeasuredKernel, ce_base_address, run_measured

#: Blocks each CE streams in the measurement window.
DEFAULT_BLOCKS = 24


def vector_load_kernel(config: CedarConfig, blocks: int = DEFAULT_BLOCKS):
    """Kernel factory: ``blocks`` back-to-back 32-word prefetched loads."""
    block = config.prefetch.compiler_block_words

    def factory(ce: ComputationalElement):
        base = ce_base_address(ce)
        for i in range(blocks):
            handle = yield ArmFirePrefetch(
                length=block, stride=1, start_address=base + i * block
            )
            # A vector load moves the words to a register: one cycle per
            # element, no arithmetic.
            yield ConsumePrefetch(handle, flops_per_element=0.0)

    return factory


def measure_vector_load(
    num_ces: int,
    config: Optional[CedarConfig] = None,
    blocks: int = DEFAULT_BLOCKS,
) -> KernelRun:
    """Run VL on ``num_ces`` CEs; Table 2 reports its latency columns."""
    kernel = MeasuredKernel(
        name="VL",
        factory=lambda cfg, _n: vector_load_kernel(cfg, blocks=blocks),
    )
    return run_measured(kernel, num_ces, config, warmup_fraction=0.2)
