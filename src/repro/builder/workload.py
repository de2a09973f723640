"""The deterministic probe workload that scores one design point.

Every sweep point runs the same *stream* workload: each CE prefetches
consecutive 32-word blocks from its own memory region and chains two
floating-point operations per element (the paper's kernels all chain two
ops per memory request, Section 4.1).  The workload is measured twice per
spec -- on the full machine and on a single CE -- which yields the three
canonical sweep metrics:

* ``mflops``  -- delivered rate of the full machine,
* ``speedup`` -- full-machine throughput over the single-CE run
  (``N * cycles_1 / cycles_N``; ideal = N),
* ``network_conflicts`` -- crossbar output-port conflicts plus entry-queue
  injection rejections, summed over both networks from the trace
  counters.

All three come from the simulator's deterministic state (cycle counts,
flop ledgers, event counters), so a sweep artifact is byte-identical for
any ``--jobs`` fan-out.  Wall-clock throughput is deliberately *not* part
of the artifact -- the CLI reports it on stderr only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.builder.elaborate import build_config
from repro.builder.spec import MachineSpec
from repro.config import CedarConfig
from repro.hardware.ce import (
    ArmFirePrefetch,
    ComputationalElement,
    ConsumePrefetch,
)
from repro.hardware.machine import CedarMachine
from repro.kernels.common import BASE_ADDRESS_STRIDE
from repro.trace import Tracer

#: Chained floating-point operations per streamed element (Section 4.1).
FLOPS_PER_ELEMENT = 2.0

#: Blocks each CE streams per measurement; enough for the pipelines and
#: queues to reach steady state on every valid shape.
DEFAULT_BLOCKS = 6

#: Trace counters that count network contention events.
_CONFLICT_COUNTERS = ("port_conflicts", "injection_rejections")


@dataclass(frozen=True)
class SweepMetrics:
    """Canonical (deterministic) metrics of one design point."""

    mflops: float
    speedup: float
    network_conflicts: int
    cycles: int
    events_dispatched: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "mflops": round(self.mflops, 4),
            "speedup": round(self.speedup, 4),
            "network_conflicts": self.network_conflicts,
            "cycles": self.cycles,
            "events_dispatched": self.events_dispatched,
        }


def stream_kernel(config: CedarConfig, blocks: int):
    """Per-CE stream: ``blocks`` prefetched blocks, two flops per element."""
    block = config.prefetch.compiler_block_words

    def kernel(ce: ComputationalElement) -> Iterator[object]:
        base = ce.global_port * BASE_ADDRESS_STRIDE
        for index in range(blocks):
            handle = yield ArmFirePrefetch(
                length=block, stride=1, start_address=base + block * index
            )
            yield ConsumePrefetch(handle, flops_per_element=FLOPS_PER_ELEMENT)

    return kernel


def _conflict_total(tracer: Tracer) -> int:
    total = 0.0
    for totals in tracer.counter_totals().values():
        for name in _CONFLICT_COUNTERS:
            total += totals.get(name, 0.0)
    return int(total)


def measure_spec(spec: MachineSpec, blocks: int = DEFAULT_BLOCKS) -> SweepMetrics:
    """Run the stream workload on one design point.

    Two simulator runs: the full machine (traced, for the conflict
    counters) and one CE (untraced, the speedup baseline).  Both runs are
    deterministic, so the metrics are too.  The full-machine tracer is
    counters-only (``max_records=0``): only counter totals are read, and
    they are exact without a record timeline.
    """
    config = build_config(spec)
    tracer = Tracer(max_records=0)
    machine = CedarMachine(config, tracer=tracer)
    kernel = stream_kernel(config, blocks)
    cycles = machine.run_kernel(kernel, num_ces=config.num_ces)
    mflops = machine.mflops(cycles)
    conflicts = _conflict_total(tracer)
    events = machine.engine.events_dispatched

    baseline = CedarMachine(config)
    baseline_cycles = baseline.run_kernel(
        stream_kernel(config, blocks), num_ces=1
    )
    speedup = config.num_ces * baseline_cycles / cycles
    return SweepMetrics(
        mflops=mflops,
        speedup=speedup,
        network_conflicts=conflicts,
        cycles=cycles,
        events_dispatched=events,
    )
