"""The Cedar multistage shuffle-exchange network (Section 2).

Two of these are instantiated per machine: a *forward* network carrying
requests from the 32 CEs to the 32 global-memory modules and a *reverse*
network carrying replies back.  The network is self-routing (destination-tag
scheme of [Lawr75]), buffered, and packet-switched, built from 8x8 crossbars
with two-word port queues and inter-stage flow control.

Topology: with radix ``r`` and ``S = ceil(log_r ports)`` stages, line labels
are S-digit base-r numbers.  Stage ``s`` groups lines that agree on every
digit except position ``S-1-s``; the switch replaces that digit with the
corresponding digit of the destination tag.  After the last stage every
digit has been rewritten, so the packet emerges on its destination line --
the generalized butterfly, contention-equivalent to the omega/shuffle
network Cedar used.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from repro.config import NetworkConfig, network_stages_for
from repro.errors import ConfigurationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet
from repro.hardware.crossbar import CrossbarSwitch
from repro.hardware.queueing import BoundedWordQueue

DeliveryHandler = Callable[[Packet], None]


def _digit(value: int, position: int, radix: int) -> int:
    return (value // radix**position) % radix


class OmegaNetwork:
    """A unidirectional multistage network of 8x8 crossbar switches."""

    def __init__(
        self,
        engine: Engine,
        num_ports: int,
        config: NetworkConfig,
        name: str = "net",
        tracer=None,
    ) -> None:
        if num_ports < 2:
            raise ConfigurationError(f"network needs >= 2 ports, got {num_ports}")
        self.engine = engine
        self.config = config
        self.name = name
        self._tracer = tracer
        self.trace = tracer.if_enabled() if tracer is not None else None
        # Pre-bound counter set for the injection/delivery hot paths.
        self._trace_counters = (
            self.trace.counters(name) if self.trace is not None else None
        )
        #: Lazily bound counter slots (-1 until the first bump).
        self._slot_rejected = -1
        self._slot_packets = -1
        self._slot_words = -1
        self._injections = 0
        self.radix = config.switch_radix
        # Stage count shared with CedarConfig.network_stages and the
        # machine builder's routing-tag derivation (config.py owns it).
        self.num_stages = network_stages_for(num_ports, self.radix)
        self.num_lines = self.radix**self.num_stages
        self._sinks: Dict[int, DeliveryHandler] = {}
        self._delivery_queues: List[BoundedWordQueue] = []
        self._sanitizer = sanitize.current()
        self._build()
        if self._sanitizer is not None:
            # Registers the delivery queues so pops from them count as
            # deliveries in the packet-conservation ledger.
            self._sanitizer.register_network(self)

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        radix, stages = self.radix, self.num_stages
        switches_per_stage = self.num_lines // radix
        # Input queues of a stage-s switch double as the upstream stage's
        # output queues, hence 2x the per-port capacity (see crossbar.py).
        queue_words = 2 * self.config.port_queue_words
        self.stages: List[List[CrossbarSwitch]] = []
        for stage in range(stages):
            # Destination-tag routing: a stage-s switch forwards on digit
            # S-1-s of the destination.  One table per stage, shared by its
            # switches, replaces a closure call per route lookup.
            digit_position = stages - 1 - stage
            route_table = tuple(
                _digit(line, digit_position, radix)
                for line in range(self.num_lines)
            )
            row = [
                CrossbarSwitch(
                    engine=self.engine,
                    radix=radix,
                    route_table=route_table,
                    queue_words=queue_words,
                    cycles_per_word=self.config.stage_latency_cycles,
                    name=f"{self.name}.s{stage}.x{sw}",
                    tracer=self._tracer,
                )
                for sw in range(switches_per_stage)
            ]
            self.stages.append(row)
        # Wire stage s outputs to stage s+1 inputs.
        for stage in range(stages - 1):
            for sw_index, switch in enumerate(self.stages[stage]):
                for output in range(radix):
                    line = self._line_for(stage, sw_index, output)
                    nsw, nin = self._switch_for(stage + 1, line)
                    switch.connect_output(
                        output, self.stages[stage + 1][nsw].input_queues[nin]
                    )
        # Last stage outputs feed per-port delivery queues.  Endpoints either
        # pull from these (memory modules, preserving back-pressure into the
        # network) or attach a greedy sink handler (prefetch buffers, which
        # bound their own occupancy by never over-issuing requests).
        last = stages - 1
        for line in range(self.num_lines):
            sw, port = self._switch_for(last, line)
            queue = BoundedWordQueue(queue_words, name=f"{self.name}.out[{line}]")
            self.stages[last][sw].connect_output(port, queue)
            self._delivery_queues.append(queue)
        # Entry queues are looked up on every injection attempt; resolve the
        # stage-0 switch arithmetic once per line instead of per packet.
        self._entry_queues: List[BoundedWordQueue] = []
        for line in range(self.num_lines):
            sw, index = self._switch_for(0, line)
            self._entry_queues.append(self.stages[0][sw].input_queues[index])
        #: Every queue that buffers words inside the network, flattened once
        #: for the sampled occupancy gauge.
        self._buffers: List[BoundedWordQueue] = [
            queue for row in self.stages for switch in row
            for queue in switch.input_queues
        ] + self._delivery_queues

    def _switch_for(self, stage: int, line: int) -> "tuple[int, int]":
        """(switch index, port index) of ``line`` at ``stage``.

        At stage ``s`` the varying digit is position ``S-1-s``; the switch
        index is the line with that digit removed, the port index is the
        digit itself.
        """
        position = self.num_stages - 1 - stage
        digit = _digit(line, position, self.radix)
        below = line % self.radix**position
        above = line // self.radix ** (position + 1)
        switch = above * self.radix**position + below
        return switch, digit

    def _line_for(self, stage: int, switch: int, port: int) -> int:
        """Inverse of :meth:`_switch_for`: output line label."""
        position = self.num_stages - 1 - stage
        below = switch % self.radix**position
        above = switch // self.radix**position
        return above * self.radix ** (position + 1) + port * self.radix**position + below

    # -- endpoints -------------------------------------------------------

    def delivery_queue(self, port: int) -> BoundedWordQueue:
        """The exit queue of ``port``, for pull-based endpoints."""
        if not 0 <= port < self.num_lines:
            raise ConfigurationError(f"port {port} out of range")
        return self._delivery_queues[port]

    def attach_sink(self, port: int, handler: DeliveryHandler) -> None:
        """Drain ``port`` greedily, handing each packet to ``handler``.

        Endpoint delivery is free at this granularity (the port-interface
        costs sit at the injection side and the memory-module handoff),
        which yields the paper's 8-cycle minimum first-word latency.
        """
        queue = self.delivery_queue(port)
        if port in self._sinks:
            raise ConfigurationError(f"port {port} already has a sink")
        self._sinks[port] = handler

        counters = self._trace_counters
        schedule_after = self.engine.schedule_after
        packets = queue._packets
        slot_delivered = -1  # lazily interned on the first delivery

        def drain() -> None:
            nonlocal slot_delivered
            while packets:
                # BoundedWordQueue.pop, inline (its wake-up included).
                packet = packets.popleft()
                queue._used_words -= packet.words
                if queue._sanitizer is not None:
                    queue._sanitizer.queue_popped(queue, packet)
                if queue._owed_wakeups:
                    queue._owed_wakeups -= 1
                    queue._writer()
                elif queue._space_waiters:
                    queue._space_waiters.popleft()()
                if counters is not None:
                    if slot_delivered < 0:
                        slot_delivered = counters.slot("packets_delivered")
                    counters.values[slot_delivered] += 1
                # Delivery stays deferred: handlers may re-enter the network.
                # partial() dispatches without an intermediate lambda frame.
                schedule_after(0, partial(handler, packet))

        queue.add_item_listener(drain)

    def try_inject(self, port: int, packet: Packet) -> bool:
        """Offer a packet at a source port; False when the entry queue is full."""
        queue = self._entry_queues[port]
        counters = self._trace_counters
        if packet.words > queue.capacity_words - queue._used_words:
            if counters is not None:
                slot = self._slot_rejected
                if slot < 0:
                    slot = self._slot_rejected = counters.slot(
                        "injection_rejections"
                    )
                counters.values[slot] += 1
            return False
        if self._sanitizer is not None:
            self._sanitizer.network_injected(self, packet)
        queue.push(packet)
        if counters is not None:
            slot = self._slot_packets
            if slot < 0:
                slot = self._slot_packets = counters.slot("packets_injected")
                self._slot_words = counters.slot("words_injected")
            values = counters.values
            values[slot] += 1
            values[self._slot_words] += packet.words
            # Sample the buffered-word gauge sparsely: a full occupancy scan
            # per injection would dominate the traced run.
            self._injections += 1
            if self._injections % 64 == 1:
                self.trace.sample(
                    self.name, "occupancy_words",
                    self.occupancy_words(), self.engine.now,
                )
        return True

    def on_entry_space(self, port: int, waiter: Callable[[], None]) -> None:
        """One-shot callback when the entry queue at ``port`` frees space."""
        self._entry_queues[port]._space_waiters.append(waiter)

    @property
    def routing_tag_bits(self) -> int:
        """Bits of destination tag the network consumes end to end.

        Each stage rewrites one base-``radix`` digit, so the tag is
        ``num_stages * log2(radix)`` bits -- the quantity the machine
        builder bounds against the packet header's tag-field budget.
        """
        return self.num_stages * (self.radix - 1).bit_length()

    def occupancy_words(self) -> int:
        """Total words buffered inside the network (for tests/ablation)."""
        return sum([queue._used_words for queue in self._buffers])
