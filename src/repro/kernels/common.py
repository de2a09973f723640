"""Shared measurement harness for the Section 4.1 kernels.

Full problem sizes (n = 1K matrices, N up to 172K vectors) are too large to
run word-by-word in a Python cycle simulator, so every kernel here simulates
a steady-state *window* -- enough repeated blocks per CE for the pipelines
and queues to reach equilibrium -- and extrapolates the delivered rate.
This is standard practice for cycle-level simulators and is safe because
the kernels are stationary streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import CE_CYCLE_SECONDS, CedarConfig, active_config
from repro.hardware.ce import ComputationalElement, KernelFactory
from repro.hardware.machine import CedarMachine

#: Distinct large strides between per-CE base addresses so that concurrent
#: streams start on different memory modules (matching the paper's data
#: layout, where each processor works on its own matrix panels).
BASE_ADDRESS_STRIDE = 1_048_579  # prime, > any kernel footprint


@dataclass(frozen=True)
class KernelRun:
    """Result of running one kernel window on the cycle simulator."""

    name: str
    num_ces: int
    cycles: int
    flops: float
    first_word_latency: Optional[float] = None
    interarrival: Optional[float] = None

    @property
    def seconds(self) -> float:
        return self.cycles * CE_CYCLE_SECONDS

    @property
    def mflops(self) -> float:
        return self.flops / self.seconds / 1e6


@dataclass(frozen=True)
class MeasuredKernel:
    """A kernel factory plus how much floating-point work one CE declares."""

    name: str
    factory: Callable[[CedarConfig, int], KernelFactory]
    record_prefetch: bool = True


def run_measured(
    kernel: MeasuredKernel,
    num_ces: int,
    config: Optional[CedarConfig] = None,
    warmup_fraction: float = 0.0,
) -> KernelRun:
    """Run a kernel on ``num_ces`` CEs and collect Table 1/2 metrics.

    Args:
        kernel: What to run; its factory receives (config, blocks_per_ce).
        num_ces: CEs used, filled cluster by cluster (8 = one cluster).
        config: Machine configuration (default: the ambient
            :func:`repro.config.active_config`).
        warmup_fraction: Fraction of leading prefetches excluded from the
            latency statistics (ramp-up before queues reach steady state).
    """
    if config is None:
        config = active_config()
    machine = CedarMachine(config)
    factory = kernel.factory(config, num_ces)
    end = machine.run_kernel(factory, num_ces=num_ces)
    flops = machine.total_flops
    latency = interarrival = None
    handles = [
        h
        for ce in machine.ces(num_ces)
        for h in ce.pfu.completed
        if not h.invalidated or h.complete
    ]
    if kernel.record_prefetch and handles:
        skip = int(len(handles) * warmup_fraction)
        kept = handles[skip:] or handles
        for handle in kept:
            machine.monitor.record_prefetch(handle)
        latency, interarrival = machine.monitor.latency_summary()
    return KernelRun(
        name=kernel.name,
        num_ces=num_ces,
        cycles=end,
        flops=flops,
        first_word_latency=latency,
        interarrival=interarrival,
    )


def ce_base_address(ce: ComputationalElement, region: int = 0) -> int:
    """A per-CE, per-region base address spread across memory modules."""
    return ce.global_port * BASE_ADDRESS_STRIDE + region * 131_101
