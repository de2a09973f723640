"""An 8x8 crossbar switch with queued ports (Section 2, "Global Network").

Each switch has a bounded word-queue per input port and a round-robin
arbiter per output port.  An arbiter takes ``packet.words`` cycles (one word
per cycle over the 64-bit data path) to move the head packet of an input
queue to the downstream queue, and blocks -- exerting back-pressure through
the flow control -- when the downstream queue is full.

Modelling note: the hardware has a two-word queue on the input *and* output
side of every port.  We fold each output queue into the downstream stage's
input queue (doubling its capacity) so that a hop costs one arbitration
rather than two; the total buffering per port pair and the back-pressure
behaviour are preserved.

Wake masks: every input queue reports head changes to the switch, which
keeps a per-output count of head packets routed to that output
(``_heads_for``).  A wake of an arbiter with no head routed to it is
observationally a no-op -- the round-robin scan would find nothing, count
nothing and register nothing -- so masked wakes skip straight past it in
O(1).  Scans that *can* see a candidate run the full round-robin
first-fit (including re-scans that re-count a port conflict).  The
sanitizer's independent unmasked reference scan proves every skip and
every grant (``crossbar.arbiter``, ``queue.head``).  The deferred post-pop
re-scan event is always scheduled: whether it finds work is only known at
dispatch time, after same-cycle arrivals.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet
from repro.hardware.queueing import BoundedWordQueue

RouteFunction = Callable[[Packet], int]


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
        "_heads",
        "_queues",
        "_head_route",
        "_sanitizer",
    )

    def __init__(
        self,
        engine: Engine,
        switch: "CrossbarSwitch",
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
        # Hot-path prebinds: wake() runs once or more per event on the
        # network's critical path.
        self._heads = switch._heads_for
        self._queues = switch.input_queues
        self._head_route = switch._head_route
        self._sanitizer = switch._sanitizer

    def attach(self, sink: BoundedWordQueue) -> None:
        self._sink = sink

    def wake(self) -> None:
        """Try to start a transfer; called on input pushes and sink drains."""
        sink = self._sink
        if self._busy or sink is None:
            return
        switch = self.switch
        queues = self._queues
        radix = switch.radix
        start = self._next_input
        chosen = -1
        # The head-route array already holds route(head) per input (None
        # when empty), so the scan needs no head()/route() calls until it
        # lands on a match.  The scan is inlined here because wake() fires
        # for every push on the network's critical path.
        output_index = self.output_index
        if not self._heads[output_index]:
            if self._sanitizer is not None:
                # The skip is only legal if the reference scan would also
                # have found nothing; prove it.
                self._sanitizer.check_masked_skip(self)
            return  # no head routed here: the scan could find nothing
        head_route = self._head_route
        for offset in range(radix):
            index = start + offset
            if index >= radix:
                index -= radix
            if head_route[index] != output_index:
                continue
            head = queues[index]._packets[0]
            if head.words <= sink.capacity_words - sink._used_words:
                chosen = index
                break
            self._count_conflict(sink, head)
            return
        if chosen < 0:
            return
        if self._sanitizer is not None:
            # Before any mutation: the grant must match the shadow
            # reference arbiter and the round-robin pointer must be fair.
            self._sanitizer.check_arbiter_grant(self, start, chosen)
        self._busy = True
        packet = queues[chosen].pop()
        self._next_input = (chosen + 1) % radix
        self._in_flight = packet
        delay = packet.words * self.cycles_per_word
        # Popping may have exposed a new head packet bound for a sibling
        # output; let the other arbiters re-scan this cycle (deferred to
        # avoid deep recursion chains through listener callbacks).  Never
        # elided: a packet arriving later in this same cycle can give the
        # re-scan real work (and conflict counts) only visible at dispatch
        # time.  One engine call queues both events: this is the hottest
        # scheduling site in the machine.
        self.engine.schedule_pair(
            delay if delay > 0 else 1, self._finish, switch.wake_all
        )

    def _count_conflict(self, sink: BoundedWordQueue, head: Packet) -> None:
        # Head routed here but downstream is full: wait for space.  The
        # space waiter re-wakes this arbiter, which re-scans fairly.  Every
        # re-scan that hits the full sink counts another conflict.
        if self._sanitizer is not None:
            self._sanitizer.check_port_conflict(self, head)
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
        # Space was checked before the transfer started and only this
        # arbiter pushes into its sink slot contribution, but a merged sink
        # queue can be shared with other switches' arbiters -- re-check.
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


class CrossbarSwitch:
    """A radix-N crossbar: N input queues, N output arbiters."""

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
        #: Enabled trace bus or None; a single None-check per event keeps the
        #: disabled path free (this is the hottest component in the machine).
        self.trace = tracer.if_enabled() if tracer is not None else None
        #: Pre-bound counter set: the dispatch-critical methods accumulate
        #: into it directly instead of re-resolving component dicts per event.
        self._trace_counters = (
            self.trace.counters(name or "crossbar")
            if self.trace is not None
            else None
        )
        #: Interned counter slots into ``_trace_counters.values``; bound
        #: lazily on first bump (-1 until then) so counters this switch
        #: never fires stay absent from the reported totals.
        self._slot_conflicts = -1
        self._slot_packets = -1
        self._slot_words = -1
        #: Armed invariant checker or None; the arbiters prebind it.
        self._sanitizer = sanitize.current()
        #: How many input-queue heads currently route to each output.
        self._heads_for: List[int] = [0] * radix
        #: Route of each input queue's head packet (None when empty).
        self._head_route: List[Optional[int]] = [None] * radix
        self.input_queues: List[BoundedWordQueue] = [
            BoundedWordQueue(queue_words, name=f"{name}.in[{i}]")
            for i in range(radix)
        ]
        self.arbiters: List[_OutputArbiter] = [
            _OutputArbiter(engine, self, o, cycles_per_word) for o in range(radix)
        ]
        for index, queue in enumerate(self.input_queues):
            queue.set_head_listener(self._make_head_listener(index, queue))
            queue.add_item_listener(self.wake_all)

    def _make_head_listener(
        self, index: int, queue: BoundedWordQueue
    ) -> Callable[[], None]:
        """Closure that maintains the head-route masks for one input queue.

        Fired by the queue on any head change; a closure over the mask
        arrays (rather than a bound method taking the index) because it
        runs once per push-into-empty and once per pop.
        """
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

    def wake_all(self) -> None:
        """Give every output arbiter a chance to pick up a head packet."""
        if self._sanitizer is not None:
            # One pass per wake_all: the derived head-route masks must
            # mirror the actual queue heads before any arbiter trusts them.
            self._sanitizer.check_crossbar_masks(self)
        for count, arbiter in zip(self._heads_for, self.arbiters):
            if count and not arbiter._busy:
                arbiter.wake()

    def connect_output(self, output_index: int, sink: BoundedWordQueue) -> None:
        """Wire output ``output_index`` into a downstream queue."""
        self.arbiters[output_index].attach(sink)

    def occupancy_words(self) -> int:
        """Words currently buffered in this switch's input queues."""
        return sum(q.used_words for q in self.input_queues)
