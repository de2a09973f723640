"""Tests for the per-CE prefetch unit."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import SimulationError
from repro.hardware.ce import ArmFirePrefetch, AwaitPrefetch, ConsumePrefetch
from repro.hardware.machine import CedarMachine
from repro.hardware.prefetch import PAGE_RESUME_CYCLES


def run_one_prefetch(length=32, stride=1, start=4096):
    machine = CedarMachine()

    def kernel(ce):
        handle = yield ArmFirePrefetch(length=length, stride=stride,
                                       start_address=start)
        yield AwaitPrefetch(handle)

    machine.run_kernel(kernel, num_ces=1)
    return machine, machine.all_ces[0].pfu.completed[0]


class TestArmFire:
    def test_validation(self, machine):
        pfu = machine.all_ces[0].pfu
        with pytest.raises(ValueError):
            pfu.arm(length=0)
        with pytest.raises(ValueError):
            pfu.arm(length=DEFAULT_CONFIG.prefetch.buffer_words + 1)
        with pytest.raises(ValueError):
            pfu.arm(length=8, stride=0)

    def test_fire_before_arm_rejected(self, machine):
        with pytest.raises(SimulationError):
            machine.all_ces[0].pfu.fire(0)

    def test_all_words_arrive_in_buffer(self):
        _, handle = run_one_prefetch(length=32)
        assert handle.complete
        assert handle.words_arrived == 32
        assert None not in handle.arrival_cycles


class TestLatencyMetrics:
    def test_uncontended_minimums_match_paper(self):
        _, handle = run_one_prefetch(length=32)
        assert handle.first_word_latency() == 8
        assert all(gap == 1 for gap in handle.interarrival_times())

    def test_metrics_require_completion(self, machine):
        pfu = machine.all_ces[0].pfu
        pfu.arm(4)
        handle = pfu.fire(0)
        with pytest.raises(SimulationError):
            handle.first_word_latency()


class TestPageCrossing:
    def test_prefetch_suspends_at_page_boundary(self):
        page_words = DEFAULT_CONFIG.prefetch.page_bytes // 8
        # Start 8 words before a page boundary so the stream crosses once.
        machine, handle = run_one_prefetch(
            length=16, start=page_words - 8
        )
        pfu = machine.all_ces[0].pfu
        assert pfu.page_suspensions == 1
        # The crossing shows up as a gap in the interarrival stream.
        assert max(handle.interarrival_times()) >= PAGE_RESUME_CYCLES - 2

    def test_no_crossing_no_suspension(self):
        machine, _ = run_one_prefetch(length=16, start=0)
        assert machine.all_ces[0].pfu.page_suspensions == 0


class TestBufferInvalidation:
    def test_refire_invalidates_previous_buffer(self):
        machine = CedarMachine()
        handles = []

        def kernel(ce):
            first = yield ArmFirePrefetch(length=8, stride=1, start_address=0)
            yield AwaitPrefetch(first)
            second = yield ArmFirePrefetch(length=8, stride=1, start_address=64)
            yield AwaitPrefetch(second)
            handles.extend([first, second])

        machine.run_kernel(kernel, num_ces=1)
        first, second = handles
        assert first.invalidated
        assert not second.invalidated
        assert second.complete

    def test_consume_streams_one_word_per_cycle(self):
        machine = CedarMachine()
        times = {}

        def kernel(ce):
            handle = yield ArmFirePrefetch(length=32, stride=1, start_address=0)
            start = ce.engine.now
            finish = yield ConsumePrefetch(handle, flops_per_element=2.0)
            times["elapsed"] = finish - start
            times["flops"] = ce.flops

        machine.run_kernel(kernel, num_ces=1)
        # 32 words at >= 1 cycle each plus startup and fill latency.
        assert times["elapsed"] >= 32
        assert times["flops"] == 64.0


class TestReplyTags:
    def test_rejected_injections_leave_no_reply_callbacks(self):
        """A prefetch word the network rejects releases its reply tag.

        The retry allocates a fresh tag, so a kept callback would never
        be delivered: after the run every port's tag table is empty.
        """
        from repro.builder.workload import stream_kernel
        from repro.trace import Tracer

        tracer = Tracer(max_records=0)
        machine = CedarMachine(DEFAULT_CONFIG, tracer=tracer)
        machine.run_kernel(
            stream_kernel(DEFAULT_CONFIG, blocks=2),
            num_ces=DEFAULT_CONFIG.num_ces,
        )
        rejections = sum(
            totals.get("injection_rejections", 0)
            for totals in tracer.counter_totals().values()
        )
        assert rejections > 0  # the run really was contended
        assert all(ce.pfu.completed for ce in machine.all_ces)
        assert [ce.port._callbacks for ce in machine.all_ces] == [
            {} for _ in machine.all_ces
        ]
