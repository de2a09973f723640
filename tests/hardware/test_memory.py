"""Tests for the interleaved global-memory modules."""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.hardware.ce import GlobalLoads, GlobalStores, SyncInstruction
from repro.hardware.engine import Engine
from repro.hardware.memory import MemoryModule, module_for_address
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue
from repro.hardware.sync_processor import OperateOp
from repro.hardware.sync_processor import TestOp as SyncTestOp


class TestInterleaving:
    def test_double_word_interleave(self):
        assert module_for_address(0, 32) == 0
        assert module_for_address(1, 32) == 1
        assert module_for_address(33, 32) == 1

    def test_stride_one_spreads_over_all_modules(self):
        modules = {module_for_address(a, 32) for a in range(64)}
        assert modules == set(range(32))

    def test_stride_32_hits_one_module(self):
        modules = {module_for_address(a, 32) for a in range(0, 1024, 32)}
        assert len(modules) == 1


class TestModuleService:
    def test_reads_are_answered(self, machine):
        done = {}

        def kernel(ce):
            yield GlobalLoads(start_address=0, length=8, stride=1)
            done["at"] = ce.engine.now

        machine.run_kernel(kernel, num_ces=1)
        assert done["at"] > 0
        assert sum(m.requests_served for m in machine.global_memory.modules) == 8

    def test_writes_consume_service_without_reply(self, machine):
        def kernel(ce):
            yield GlobalStores(start_address=0, length=4, stride=1)

        machine.run_kernel(kernel, num_ces=1)
        machine.engine.run()
        assert sum(m.requests_served for m in machine.global_memory.modules) == 4

    def test_module_busy_accounting(self, machine):
        def kernel(ce):
            yield GlobalLoads(start_address=0, length=4, stride=32)

        machine.run_kernel(kernel, num_ces=1)
        module = machine.global_memory.modules[0]
        assert module.requests_served == 4
        assert module.busy_cycles >= 4 * machine.config.global_memory.module_cycle_time


class TestServiceTime:
    """Busy cycles per request: one module cycle per data word, at least
    one, plus the synchronization processor's operate cycles for SYNC."""

    CYCLE = 5  # not the default, so the formula's factor is visible

    def _module(self):
        engine = Engine()
        config = replace(DEFAULT_CONFIG.global_memory, module_cycle_time=self.CYCLE)
        reverse = OmegaNetwork(engine, 32, DEFAULT_CONFIG.network, name="rev")
        forward = BoundedWordQueue(8, name="fwd")
        module = MemoryModule(
            engine=engine, index=0, config=config,
            sync_config=DEFAULT_CONFIG.sync, forward_queue=forward,
            reverse=reverse,
        )
        return engine, forward, reverse, module

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "kind",
        [PacketKind.READ_REQUEST, PacketKind.WRITE_REQUEST, PacketKind.SYNC_REQUEST],
    )
    def test_busy_cycles_per_request(self, kind, words):
        engine, forward, _, module = self._module()
        expected = self.CYCLE * max(1, words - 1)
        if kind is PacketKind.SYNC_REQUEST:
            expected += DEFAULT_CONFIG.sync.operate_cycles
        for served in (1, 2):
            forward.push(Packet(kind, source=served, destination=0, address=0, words=words))
            engine.run()
            assert module.requests_served == served
            assert module.busy_cycles == served * expected

    def test_read_reply_answers_the_request(self):
        engine, forward, reverse, _ = self._module()
        request = Packet(
            PacketKind.READ_REQUEST, source=6, destination=0, address=96,
            words=1, request_tag=17, payload="ctl",
        )
        forward.push(request)
        engine.run()
        reply = reverse.delivery_queue(6).pop()
        assert reply.kind is PacketKind.READ_REPLY
        assert (reply.source, reply.destination) == (0, 6)
        assert (reply.address, reply.words) == (96, 1)
        assert (reply.request_tag, reply.payload) == (17, "ctl")
        assert reply.issue_cycle == self.CYCLE
        assert reply.packet_id > request.packet_id


class TestSyncThroughMemory:
    def test_test_and_operate_round_trip(self, machine):
        outcomes = []

        def kernel(ce):
            result = yield SyncInstruction(
                address=77, test=SyncTestOp.ALWAYS, op=OperateOp.ADD, operand=5
            )
            outcomes.append(result)

        machine.run_kernel(kernel, num_ces=1)
        assert outcomes[0].test_passed
        assert outcomes[0].new_value == 5

    def test_concurrent_adds_are_indivisible(self, machine):
        def kernel(ce):
            for _ in range(4):
                yield SyncInstruction(address=99, op=OperateOp.ADD, operand=1)

        machine.run_kernel(kernel, num_ces=8)
        memory = machine.global_memory
        module = memory.modules[module_for_address(
            99, memory.config.num_modules, memory.config.interleave_words
        )]
        assert module.sync.read(99) == 32  # 8 CEs x 4 increments, none lost

    def test_test_and_set_mutual_exclusion(self, machine):
        winners = []

        def kernel(ce):
            outcome = yield SyncInstruction(address=11, test_and_set=True)
            if outcome.test_passed:
                winners.append(ce.global_port)

        machine.run_kernel(kernel, num_ces=8)
        assert len(winners) == 1
