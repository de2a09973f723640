"""Interleaved global-memory modules (Section 2, "Memory Hierarchy").

Global memory is double-word (8-byte) interleaved and aligned; each module
serves one word per ``module_cycle_time`` cycles, giving the system its
768 MB/s peak.  A module pulls requests from its forward-network delivery
queue (so a busy module back-pressures the network), services them in FIFO
order, and injects replies into the reverse network -- stalling, again with
back-pressure, when the reverse network entry is full.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import GlobalMemoryConfig, SyncConfig
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import MAX_PACKET_WORDS, Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue
from repro.hardware.sync_processor import SyncProcessor

#: Lower-case span labels, resolved once instead of per-request.
_KIND_NAMES = {kind: kind.name.lower() for kind in PacketKind}


def module_for_address(
    address: int, num_modules: int, interleave_words: int = 1
) -> int:
    """Module serving a word address.

    ``interleave_words`` consecutive words live on one module before the
    interleave advances (1 = the paper's double-word interleave; the
    machine builder exposes coarser interleaves as a design knob).
    """
    if interleave_words == 1:
        return address % num_modules
    return (address // interleave_words) % num_modules


def address_steering(num_modules: int, interleave_words: int) -> Callable[[int], int]:
    """:func:`module_for_address` with the shape bound: the CE-side map.

    At the paper's interleave it is ``num_modules.__rmod__`` (``address %
    num_modules``), a C-level callable, so steering a request runs no
    Python frame.  A coarser interleave calls :func:`module_for_address`,
    so the formula lives only there; the sanitizer's ownership check calls
    it on every request a module pulls, which proves the two sides agree.
    """
    if interleave_words == 1:
        return num_modules.__rmod__
    return lambda address: module_for_address(address, num_modules, interleave_words)


class MemoryModule:
    """One global-memory module with its synchronization processor."""

    def __init__(
        self,
        engine: Engine,
        index: int,
        config: GlobalMemoryConfig,
        sync_config: SyncConfig,
        forward_queue: BoundedWordQueue,
        reverse: OmegaNetwork,
        sync_handler: Optional[Callable[[Packet, SyncProcessor], object]] = None,
        tracer=None,
        has_sync: bool = True,
    ) -> None:
        self.engine = engine
        self.index = index
        self.config = config
        self.forward_queue = forward_queue
        self.reverse = reverse
        self.trace = tracer.if_enabled() if tracer is not None else None
        self._trace_component = f"memory.m{index:02d}"
        self._trace_counters = (
            self.trace.counters(self._trace_component)
            if self.trace is not None
            else None
        )
        #: Span args are built only for a bus that stores its records.
        self._span_address = (
            self.trace is not None and self.trace.keeps_records
        )
        #: Lazily bound counter slots (-1 until the first bump).
        self._slot_served = -1
        self._slot_busy = -1
        # The synchronization processor rides on the module (Section 2);
        # builder specs may equip only the first N modules, in which case
        # a SYNC packet reaching a bare module is a routing/spec error.
        self.sync: Optional[SyncProcessor] = (
            SyncProcessor(tracer=tracer) if has_sync else None
        )
        self._sync_handler = sync_handler
        self._sanitizer = sanitize.current()
        if self._sanitizer is not None:
            self._sanitizer.register_memory_module(self)
        self._busy = False
        self._pending_reply: Optional[Packet] = None
        self._in_service: Optional[Packet] = None
        self.requests_served = 0
        self.busy_cycles = 0
        #: Service cycles by request length in words, cached once: one
        #: module cycle per data word, and one for a header-only request.
        self._service_by_words = tuple(
            config.module_cycle_time * max(1, words - 1)
            for words in range(MAX_PACKET_WORDS + 1)
        )
        self._sync_operate_cycles = sync_config.operate_cycles
        #: The reverse-entry space waiter, bound once: a saturated reverse
        #: network re-queues it on every failed reply injection.
        self._retry_waiter = self._retry_reply
        forward_queue.add_item_listener(self._wake)

    def _wake(self) -> None:
        if self._busy or self._pending_reply is not None:
            return
        queue = self.forward_queue
        packets = queue._packets
        if not packets:
            return
        self._busy = True
        # BoundedWordQueue.pop, inline: its wake-up runs here too.
        request = packets.popleft()
        queue._used_words -= request.words
        if queue._sanitizer is not None:
            queue._sanitizer.queue_popped(queue, request)
        if queue._owed_wakeups:
            queue._owed_wakeups -= 1
            queue._writer()
        elif queue._space_waiters:
            queue._space_waiters.popleft()()
        if self._sanitizer is not None:
            self._sanitizer.memory_request(self, request)
        service = self._service_by_words[request.words]
        if request.kind is PacketKind.SYNC_REQUEST:
            service += self._sync_operate_cycles
        self.busy_cycles += service
        if self.trace is not None:
            now = self.engine._now
            if self._span_address:
                self.trace.complete(
                    self._trace_component, _KIND_NAMES[request.kind],
                    now, now + service, address=request.address,
                )
            else:
                self.trace.complete(
                    self._trace_component, _KIND_NAMES[request.kind],
                    now, now + service,
                )
            counters = self._trace_counters
            slot = self._slot_served
            if slot < 0:
                slot = self._slot_served = counters.slot("requests_served")
                self._slot_busy = counters.slot("busy_cycles")
            values = counters.values
            values[slot] += 1
            values[self._slot_busy] += service
        # The in-service request rides on the module (one request in service
        # at a time) rather than in a per-request lambda.
        self._in_service = request
        self.engine.schedule_after(service, self._complete)

    def _complete(self) -> None:
        request = self._in_service
        assert request is not None
        self._in_service = None
        self.requests_served += 1
        if request.kind is PacketKind.READ_REQUEST:
            # request.reply(READ_REPLY, words=1, issue_cycle=now), built
            # directly: reads are most of the traffic.
            reply = Packet(
                PacketKind.READ_REPLY, request.destination, request.source,
                request.address, 1, self.engine._now, request.request_tag,
                request.payload,
            )
        else:
            reply = self._build_reply(request)
        self._busy = False
        if reply is None:
            if self._sanitizer is not None:
                self._sanitizer.memory_write_absorbed(self)
            self._wake()
            return
        # One cycle moves the reply through the module's reverse-network
        # port register; the next access cannot start until the register
        # drains, so a saturated module departs one word per
        # (module_cycle_time + 1) cycles -- the implementation constraint
        # behind the contention Table 2 observes.  Uncontended first-word
        # latency stays at the paper's 8-cycle minimum: 2 forward stages +
        # 3-cycle module + 1 handoff + 2 reverse stages.
        self._pending_reply = reply
        self.engine.schedule_after(1, self._retry_reply)

    def _build_reply(self, request: Packet) -> Optional[Packet]:
        """The reply to a WRITE or SYNC request (None for a write)."""
        if request.kind is PacketKind.WRITE_REQUEST:
            # Writes do not stall a CE (Section 2); the machine is weakly
            # ordered, so no acknowledgement packet is modelled.
            return None
        if request.kind is PacketKind.SYNC_REQUEST:
            if self.sync is None:
                raise SimulationError(
                    f"module {self.index} has no synchronization processor "
                    f"(spec equips {self.config.sync_processor_count} of "
                    f"{self.config.num_modules} modules); SYNC request for "
                    f"address {request.address}"
                )
            outcome = None
            if self._sync_handler is not None:
                outcome = self._sync_handler(request, self.sync)
            return request.reply(
                PacketKind.SYNC_REPLY, words=1, issue_cycle=self.engine.now,
                payload=outcome,
            )
        raise SimulationError(f"module received unexpected packet {request.kind}")

    def _retry_reply(self) -> None:
        reply = self._pending_reply
        if reply is None:
            return
        if self.reverse.try_inject(self.index, reply):
            if self._sanitizer is not None:
                self._sanitizer.memory_reply(self, reply)
            self._pending_reply = None
            self._wake()
        else:
            self.reverse.on_entry_space(self.index, self._retry_waiter)


class GlobalMemory:
    """All modules plus address-to-module steering."""

    def __init__(
        self,
        engine: Engine,
        config: GlobalMemoryConfig,
        sync_config: SyncConfig,
        forward: OmegaNetwork,
        reverse: OmegaNetwork,
        sync_handler: Optional[Callable[[Packet, SyncProcessor], object]] = None,
        tracer=None,
    ) -> None:
        self.config = config
        sync_count = config.sync_processor_count
        self.modules = [
            MemoryModule(
                engine=engine,
                index=i,
                config=config,
                sync_config=sync_config,
                forward_queue=forward.delivery_queue(i),
                reverse=reverse,
                sync_handler=sync_handler,
                tracer=tracer,
                has_sync=i < sync_count,
            )
            for i in range(config.num_modules)
        ]
