"""Tests for the computational element's micro-operations."""

import pytest

from repro.errors import SimulationError
from repro.hardware.ce import (
    Compute,
    GlobalLoads,
    GlobalStores,
    PostEvent,
    VectorCacheOp,
)
from repro.hardware.machine import CedarMachine


class TestCompute:
    def test_busy_for_requested_cycles(self, machine):
        marks = {}

        def kernel(ce):
            start = ce.engine.now
            yield Compute(100, flops=50.0)
            marks["elapsed"] = ce.engine.now - start
            marks["flops"] = ce.flops

        machine.run_kernel(kernel, num_ces=1)
        assert marks["elapsed"] == 100
        assert marks["flops"] == 50.0

    def test_negative_cycles_rejected(self, machine):
        def kernel(ce):
            yield Compute(-1)

        with pytest.raises(SimulationError):
            machine.run_kernel(kernel, num_ces=1)


class TestGlobalLoads:
    def test_window_of_two_outstanding_bounds_throughput(self, machine):
        marks = {}

        def kernel(ce):
            start = ce.engine.now
            yield GlobalLoads(start_address=0, length=26, stride=1)
            marks["elapsed"] = ce.engine.now - start

        machine.run_kernel(kernel, num_ces=1)
        # 26 words at 2 outstanding over a 13-cycle latency ~= 13 cyc/pair.
        assert marks["elapsed"] >= 26 / 2 * 12

    def test_flop_credit(self, machine):
        def kernel(ce):
            yield GlobalLoads(start_address=0, length=8, flops_per_element=2.0)

        machine.run_kernel(kernel, num_ces=1)
        assert machine.all_ces[0].flops == 16.0


class TestGlobalStores:
    def test_stores_do_not_wait_for_memory(self, machine):
        marks = {}

        def kernel(ce):
            start = ce.engine.now
            yield GlobalStores(start_address=0, length=8)
            marks["elapsed"] = ce.engine.now - start

        machine.run_kernel(kernel, num_ces=1)
        # Issue-limited, not latency-limited: well under 8 round trips.
        assert marks["elapsed"] < 8 * 13


class TestDemandSteering:
    """Demand loads and stores go to the module that owns their word
    address, whatever interleave the machine declares."""

    def test_requests_land_on_their_owner_under_coarse_interleave(self):
        from collections import Counter

        from repro.builder import MachineSpec, build_config
        from repro.hardware import sanitize
        from repro.hardware.memory import module_for_address

        config = build_config(MachineSpec(memory_modules=16, interleave_words=2))
        assert module_for_address(17, 16, 2) == 8  # not 17 % 16

        def kernel(ce):
            yield GlobalLoads(start_address=0, length=40)
            yield GlobalStores(start_address=0, length=40)

        with sanitize.sanitizing() as sanitizer:
            machine = CedarMachine(config)
            machine.run_kernel(kernel, num_ces=1)
            sanitizer.finalize()
        assert sanitizer.violations == 0
        assert sanitizer.checks["memory.balance"] > 0
        owners = Counter(module_for_address(a, 16, 2) for a in range(40))
        served = [m.requests_served for m in machine.global_memory.modules]
        assert served == [2 * owners[m] for m in range(16)]


class TestVectorCache:
    def test_pipeline_and_flops(self, machine):
        def kernel(ce):
            yield VectorCacheOp(length=32, flops_per_element=2.0)

        cycles = machine.run_kernel(kernel, num_ces=1)
        assert machine.all_ces[0].flops == 64.0
        # Start-up, then one element per cycle: 32 / (32 + 12) is the
        # paper's 274 / 376 effective-to-absolute peak ratio.
        assert cycles == machine.config.vector.startup_cycles + 32 == 44
        assert 32 / cycles == pytest.approx(274 / 376, rel=0.01)

    def test_long_op_pays_one_startup(self, machine):
        # 64 words stream from the cache in 8 + 1 cycles, so the pipeline
        # is the bound: one start-up for the whole instruction.
        def kernel(ce):
            yield VectorCacheOp(length=64)

        cycles = machine.run_kernel(kernel, num_ces=1)
        assert cycles == machine.config.vector.startup_cycles + 64 == 76

    def test_zero_length_rejected(self, machine):
        def kernel(ce):
            yield VectorCacheOp(length=0)

        with pytest.raises(SimulationError):
            machine.run_kernel(kernel, num_ces=1)


class TestLifecycle:
    def test_unknown_operation_rejected(self, machine):
        def kernel(ce):
            yield "nonsense"

        with pytest.raises(SimulationError):
            machine.run_kernel(kernel, num_ces=1)

    def test_post_event_reaches_monitor(self, machine):
        def kernel(ce):
            tracer = ce.monitor.tracer("software")
            tracer.start()
            yield PostEvent("phase-start", value=3)

        machine.run_kernel(kernel, num_ces=1)
        events = machine.monitor.tracer("software").events("phase-start")
        assert len(events) == 1
        assert events[0].value == 3

    def test_cannot_run_two_kernels_at_once(self, machine):
        ce = machine.all_ces[0]

        def kernel(c):
            yield Compute(1000)

        ce.run(kernel)
        with pytest.raises(SimulationError):
            ce.run(kernel)

    def test_finished_flag(self, machine):
        def kernel(ce):
            yield Compute(5)

        end = machine.run_kernel(kernel, num_ces=2)
        for ce in machine.ces(2):
            assert ce.finished_at == end
