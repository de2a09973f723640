"""Reference crossbar: one arbiter object per output, listener-driven masks.

The oracle for :class:`repro.hardware.crossbar.CrossbarSwitch`.  This is
the layout the flat switch replaced: eight ``_OutputArbiter`` objects per
switch, input queues that report head changes through a per-queue closure
and wake the switch through an item listener, and a fresh bound method
queued as a space waiter on every port conflict.  The production switch
must produce the same event stream (including ``events_dispatched`` and
re-counted port conflicts), which ``tests/test_determinism.py`` checks by
building whole machines and fuzzed networks on this class
(monkeypatch ``repro.hardware.network.CrossbarSwitch``).

The oracle does not report to the sanitizer's crossbar checks (those take
the production switch's flat state); its queues still run the queue
capacity and flow-control checks, and it exposes ``in_flight`` so the
sanitizer's end-of-run conservation ledger can read it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet
from repro.hardware.queueing import BoundedWordQueue

RouteFunction = Callable[[Packet], int]


class _HeadListenedQueue(BoundedWordQueue):
    """A queue that calls one head listener on every head change.

    Fires on a push into an empty queue and on every pop, *before* item
    listeners and space waiters run, so the derived head masks are
    consistent by the time anyone reacts.
    """

    def __init__(self, capacity_words: int, name: str = "") -> None:
        super().__init__(capacity_words, name=name)
        self._head_listener: Optional[Callable[[], None]] = None

    def push(self, packet: Packet) -> None:
        words = packet.words
        if words > self.capacity_words - self._used_words:
            raise SimulationError(
                f"queue {self.name or '<anonymous>'} overflow: "
                f"{words} words into {self.free_words} free"
            )
        packets = self._packets
        packets.append(packet)
        self._used_words += words
        if self._sanitizer is not None:
            self._sanitizer.queue_pushed(self, packet)
        if len(packets) == 1 and self._head_listener is not None:
            self._head_listener()
        for listener in self._item_listeners:
            listener()

    def pop(self) -> Packet:
        packets = self._packets
        if not packets:
            raise SimulationError(
                f"pop from empty queue {self.name or '<anonymous>'}"
            )
        packet = packets.popleft()
        self._used_words -= packet.words
        if self._sanitizer is not None:
            self._sanitizer.queue_popped(self, packet)
        if self._head_listener is not None:
            self._head_listener()
        if self._space_waiters:
            self._space_waiters.popleft()()
        return packet


class _OutputArbiter:
    """Round-robin arbiter for one crossbar output."""

    __slots__ = (
        "engine",
        "switch",
        "output_index",
        "cycles_per_word",
        "_busy",
        "_next_input",
        "_in_flight",
        "_sink",
    )

    def __init__(
        self,
        engine: Engine,
        switch: "ReferenceCrossbarSwitch",
        output_index: int,
        cycles_per_word: int,
    ) -> None:
        self.engine = engine
        self.switch = switch
        self.output_index = output_index
        self.cycles_per_word = cycles_per_word
        self._busy = False
        self._next_input = 0
        self._in_flight: Optional[Packet] = None
        self._sink: Optional[BoundedWordQueue] = None

    def attach(self, sink: BoundedWordQueue) -> None:
        self._sink = sink

    def wake(self) -> None:
        """Try to start a transfer; called on input pushes and sink drains."""
        sink = self._sink
        if self._busy or sink is None:
            return
        switch = self.switch
        queues = switch.input_queues
        radix = switch.radix
        output_index = self.output_index
        if not switch._heads_for[output_index]:
            return  # no head routed here: the scan could find nothing
        start = self._next_input
        chosen = -1
        for offset in range(radix):
            index = (start + offset) % radix
            if switch._head_route[index] != output_index:
                continue
            head = queues[index]._packets[0]
            if head.words <= sink.capacity_words - sink._used_words:
                chosen = index
                break
            self._count_conflict(sink)
            return
        if chosen < 0:
            return
        self._busy = True
        packet = queues[chosen].pop()
        self._next_input = (chosen + 1) % radix
        self._in_flight = packet
        delay = packet.words * self.cycles_per_word
        # The deferred re-scan of every output is always scheduled: a
        # packet arriving later this cycle can give it work.
        self.engine.schedule_pair(
            delay if delay > 0 else 1, self._finish, switch.wake_all
        )

    def _count_conflict(self, sink: BoundedWordQueue) -> None:
        # Every re-scan that hits the full sink counts another conflict
        # and queues another (freshly bound) space waiter.
        switch = self.switch
        counters = switch._trace_counters
        if counters is not None:
            slot = switch._slot_conflicts
            if slot < 0:
                slot = switch._slot_conflicts = counters.slot("port_conflicts")
            counters.values[slot] += 1
        sink.wait_for_space(self.wake)

    def _finish(self) -> None:
        packet = self._in_flight
        sink = self._sink
        assert packet is not None and sink is not None
        if packet.words <= sink.capacity_words - sink._used_words:
            sink.push(packet)
            self._in_flight = None
            self._busy = False
            switch = self.switch
            counters = switch._trace_counters
            if counters is not None:
                slot = switch._slot_packets
                if slot < 0:
                    slot = switch._slot_packets = counters.slot(
                        "packets_forwarded"
                    )
                    switch._slot_words = counters.slot("words_forwarded")
                values = counters.values
                values[slot] += 1
                values[switch._slot_words] += packet.words
            self.wake()
        else:
            sink.wait_for_space(self._finish)


class ReferenceCrossbarSwitch:
    """A radix-N crossbar: N listened input queues, N arbiter objects."""

    def __init__(
        self,
        engine: Engine,
        radix: int,
        route: RouteFunction,
        queue_words: int,
        cycles_per_word: int = 1,
        name: str = "",
        tracer=None,
    ) -> None:
        if radix < 2:
            raise ValueError(f"crossbar radix must be >= 2, got {radix}")
        self.engine = engine
        self.radix = radix
        self.route = route
        self.name = name
        self.trace = tracer.if_enabled() if tracer is not None else None
        self._trace_counters = (
            self.trace.counters(name or "crossbar")
            if self.trace is not None
            else None
        )
        self._slot_conflicts = -1
        self._slot_packets = -1
        self._slot_words = -1
        self._heads_for: List[int] = [0] * radix
        self._head_route: List[Optional[int]] = [None] * radix
        self.input_queues: List[_HeadListenedQueue] = [
            _HeadListenedQueue(queue_words, name=f"{name}.in[{i}]")
            for i in range(radix)
        ]
        self.arbiters: List[_OutputArbiter] = [
            _OutputArbiter(engine, self, o, cycles_per_word) for o in range(radix)
        ]
        for index, queue in enumerate(self.input_queues):
            queue._head_listener = self._make_head_listener(index, queue)
            queue.add_item_listener(self.wake_all)

    def _make_head_listener(
        self, index: int, queue: BoundedWordQueue
    ) -> Callable[[], None]:
        packets = queue._packets
        route = self.route
        head_route = self._head_route
        heads_for = self._heads_for

        def head_changed() -> None:
            new_route = route(packets[0]) if packets else None
            old_route = head_route[index]
            if new_route == old_route:
                return
            head_route[index] = new_route
            if old_route is not None:
                heads_for[old_route] -= 1
            if new_route is not None:
                heads_for[new_route] += 1

        return head_changed

    @property
    def in_flight(self) -> List[Optional[Packet]]:
        """Per-output packet on the wire (the sanitizer's ledger reads it)."""
        return [arbiter._in_flight for arbiter in self.arbiters]

    def wake_all(self) -> None:
        """Give every output arbiter a chance to pick up a head packet."""
        for count, arbiter in zip(self._heads_for, self.arbiters):
            if count and not arbiter._busy:
                arbiter.wake()

    def connect_output(self, output_index: int, sink: BoundedWordQueue) -> None:
        self.arbiters[output_index].attach(sink)

    def occupancy_words(self) -> int:
        return sum(q.used_words for q in self.input_queues)
