"""An 8x8 crossbar switch with queued ports (Section 2, "Global Network").

Each switch has a bounded word-queue per input port and a round-robin
arbiter per output port.  An output takes ``packet.words`` cycles (one word
per cycle over the 64-bit data path) to move the head packet of an input
queue to the downstream queue, and blocks -- exerting back-pressure through
the flow control -- when the downstream queue is full.

Modelling note: the hardware has a two-word queue on the input *and* output
side of every port.  We fold each output queue into the downstream stage's
input queue (doubling its capacity) so that a hop costs one arbitration
rather than two; the total buffering per port pair and the back-pressure
behaviour are preserved.

State layout: the switch owns all of its arbitration state as flat lists
and bitmasks.  Per output: the round-robin pointer ``next_input``, the
packet ``in_flight`` and the downstream ``sink``.  Per input:
``_head_route``, the route of the queue's head packet (None when empty).
Per output again, ``_inputs_for[o]`` is a bitmask of the inputs whose head
routes to ``o``.  Two switch-wide output masks summarise the rest:
``_headed`` (some head routes here) and ``_idle`` (the output is wired and
not transferring).  Routes come from ``route_table``, a destination ->
output-port list the network builds once per stage.  The input queues are
:class:`SwitchInputQueue`, whose push and pop keep the masks current
inline and then call the switch directly.  On the hot path a hop is
straight-line code: a grant pops its input queue inline (the same mask
update as ``SwitchInputQueue.pop``), and an output wired to the next
stage's input queue ends its transfer with :meth:`_finish_hop`, which
pushes inline; an output wired to a network exit queue uses
:meth:`_finish`, which pushes inline and calls the queue's listeners.

Owed wake-ups: every output's sink has that output as its only writer,
so :meth:`connect_output` hands the sink a waker that re-scans the
output, once (:meth:`BoundedWordQueue.attach_writer`).  A port conflict
adds one to the sink's ``_owed_wakeups``, and every pop of the sink pays
one back by calling the waker.  Each re-scan that meets the full sink
counts a conflict and is owed a wake-up, as in the reference crossbar,
which queues a space waiter per conflict; the event streams match, but
a congested port holds one integer.

Arbitration: the round-robin winner of output ``o`` with pointer ``start``
is the lowest set bit of ``inputs >> start << start or inputs`` -- the
first head-routed input at or after the pointer, else the first one
before it.

Wake masks: a switch-wide scan visits only the outputs in
``_headed & _idle``, in ascending order.  A grant pops an input queue, and
a stage-0 queue's space waiter can inject into this very switch before the
pop returns, so the scan re-reads the masks after every grant; a port
conflict changes no switch state, so after one it keeps its snapshot.
With the sanitizer off, a push that leaves ``_headed & _idle`` empty and
an end of transfer with no head routed to its output skip the scan
outright.  With it armed every scan runs, and the unmasked reference scan
proves every skip and every grant (``crossbar.arbiter``, ``queue.head``).
The deferred post-grant re-scan of the whole switch is always scheduled:
whether it finds work is only known at dispatch time, after same-cycle
arrivals.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet
from repro.hardware.queueing import BoundedWordQueue


class SwitchInputQueue(BoundedWordQueue):
    """An input-port queue that keeps its switch's head-route masks.

    Its switch is its only observer.  A push into an empty queue and every
    pop re-derive the masks before anyone reacts; then a push wakes the
    whole switch and a pop pays one owed wake-up to its upstream output
    (past stage 0) or fires one endpoint waiter (at stage 0).  The hot
    path runs inline copies of both: a grant pops (``_grant``) and a
    finished hop pushes (``_finish_hop``) without calling these.
    """

    def __init__(
        self, switch: "CrossbarSwitch", index: int, capacity_words: int
    ) -> None:
        super().__init__(capacity_words, name=f"{switch.name}.in[{index}]")
        self._index = index
        self._bit = 1 << index
        self._switch = switch
        self._route_table = switch.route_table
        self._head_route = switch._head_route
        self._inputs_for = switch._inputs_for
        self._wake_all = switch.wake_all

    def add_item_listener(self, listener: Callable[[], None]) -> None:
        raise SimulationError(
            f"queue {self.name} is a switch input: only its switch observes it"
        )

    def push(self, packet: Packet) -> None:
        words = packet.words
        if words > self.capacity_words - self._used_words:
            self._overflow(words)
        packets = self._packets
        packets.append(packet)
        self._used_words += words
        if self._sanitizer is not None:
            self._sanitizer.queue_pushed(self, packet)
        switch = self._switch
        if len(packets) == 1:
            route = self._route_table[packet.destination]
            self._head_route[self._index] = route
            self._inputs_for[route] |= self._bit
            switch._headed |= 1 << route
        # No headed idle output: the scan could find nothing.  Armed, the
        # sanitizer still sees every scan, so its check counts never move.
        if switch._headed & switch._idle or self._sanitizer is not None:
            self._wake_all()

    def pop(self) -> Packet:
        packets = self._packets
        if not packets:
            self._underflow()
        packet = packets.popleft()
        self._used_words -= packet.words
        if self._sanitizer is not None:
            self._sanitizer.queue_popped(self, packet)
        head_route = self._head_route
        old_route = head_route[self._index]
        new_route = self._route_table[packets[0].destination] if packets else None
        if new_route != old_route:
            head_route[self._index] = new_route
            inputs_for = self._inputs_for
            switch = self._switch
            if old_route is not None:
                inputs = inputs_for[old_route] & ~self._bit
                inputs_for[old_route] = inputs
                if not inputs:
                    switch._headed &= ~(1 << old_route)
            if new_route is not None:
                inputs_for[new_route] |= self._bit
                switch._headed |= 1 << new_route
        if self._owed_wakeups:
            self._owed_wakeups -= 1
            self._writer()
        elif self._space_waiters:
            self._space_waiters.popleft()()
        return packet


class CrossbarSwitch:
    """A radix-N crossbar: N input queues, N round-robin outputs."""

    def __init__(
        self,
        engine: Engine,
        radix: int,
        route_table: Sequence[int],
        queue_words: int,
        cycles_per_word: int = 1,
        name: str = "",
        tracer=None,
    ) -> None:
        if radix < 2:
            raise ValueError(f"crossbar radix must be >= 2, got {radix}")
        self.engine = engine
        self.radix = radix
        #: Output port of each packet destination (indexed by destination).
        self.route_table = route_table
        self.name = name
        self.cycles_per_word = cycles_per_word
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
        #: Armed invariant checker or None.
        self._sanitizer = sanitize.current()
        self._head_route: List[Optional[int]] = [None] * radix
        self._inputs_for: List[int] = [0] * radix
        self._headed = 0
        self._idle = 0
        self.next_input: List[int] = [0] * radix
        self.in_flight: List[Optional[Packet]] = [None] * radix
        self.sink: List[Optional[BoundedWordQueue]] = [None] * radix
        #: Bound once: every grant passes both to the engine.
        self._schedule_pair = engine.schedule_pair
        self._wake_all = self.wake_all
        #: Per-output end of transfer, picked by :meth:`connect_output`
        #: (an unwired output is never idle, so it is never granted).
        self._finishers: List[Optional[Callable[[], None]]] = [None] * radix
        self.input_queues: List[SwitchInputQueue] = [
            SwitchInputQueue(self, i, queue_words) for i in range(radix)
        ]

    def wake_all(self) -> None:
        """Round-robin first-fit scan of every idle, head-routed output."""
        sanitizer = self._sanitizer
        if sanitizer is not None:
            # One pass per wake_all: the masks must mirror the actual queue
            # heads, sinks and transfers before any scan trusts them.
            sanitizer.check_crossbar_masks(self)
        ready = self._headed & self._idle
        while ready:
            low = ready & -ready
            output = low.bit_length() - 1
            inputs = self._inputs_for[output]
            start = self.next_input[output]
            pick = inputs >> start << start or inputs
            index = (pick & -pick).bit_length() - 1
            head = self.input_queues[index]._packets[0]
            sink = self.sink[output]
            if head.words > sink.capacity_words - sink._used_words:
                # Port conflict: downstream is full, wait for space.  Every
                # re-scan that hits the full sink counts another conflict
                # and is owed another wake-up by the sink's next pops.
                if self._sanitizer is not None:
                    self._sanitizer.check_port_conflict(self, output, head)
                counters = self._trace_counters
                if counters is not None:
                    slot = self._slot_conflicts
                    if slot < 0:
                        slot = self._slot_conflicts = counters.slot(
                            "port_conflicts"
                        )
                    counters.values[slot] += 1
                sink._owed_wakeups += 1
                ready ^= low
            else:
                self._grant(output, start, index, head)
                # The grant's pop may have re-entered this switch: re-read
                # the masks, keeping only the outputs above this one.
                ready = self._headed & self._idle & -(low << 1)

    def wake(self, output: int) -> None:
        """Scan one output; its space waiter and end of transfer call this."""
        if not self._idle >> output & 1:
            return
        inputs = self._inputs_for[output]
        if not inputs:
            if self._sanitizer is not None:
                # The skip is only legal if the reference scan would also
                # have found nothing; prove it.
                self._sanitizer.check_masked_skip(self, output)
            return
        start = self.next_input[output]
        pick = inputs >> start << start or inputs
        index = (pick & -pick).bit_length() - 1
        head = self.input_queues[index]._packets[0]
        sink = self.sink[output]
        if head.words > sink.capacity_words - sink._used_words:
            # Port conflict, counted and owed as in wake_all.
            if self._sanitizer is not None:
                self._sanitizer.check_port_conflict(self, output, head)
            counters = self._trace_counters
            if counters is not None:
                slot = self._slot_conflicts
                if slot < 0:
                    slot = self._slot_conflicts = counters.slot("port_conflicts")
                counters.values[slot] += 1
            sink._owed_wakeups += 1
        else:
            self._grant(output, start, index, head)

    def _grant(self, output: int, start: int, chosen: int, packet: Packet) -> None:
        sanitizer = self._sanitizer
        if sanitizer is not None:
            # Before any mutation: the grant must match the shadow
            # reference arbiter and the round-robin pointer must be fair.
            sanitizer.check_arbiter_grant(self, output, start, chosen)
        # The output turns busy with its packet on the wire before the pop,
        # whose space waiter may re-enter (and re-check) this switch.
        self._idle &= ~(1 << output)
        self.in_flight[output] = packet
        # SwitchInputQueue.pop, inline.  The granted packet is the head and
        # it routed to ``output``, so ``output`` is the old head route.
        queue = self.input_queues[chosen]
        packets = queue._packets
        packets.popleft()
        queue._used_words -= packet.words
        if sanitizer is not None:
            sanitizer.queue_popped(queue, packet)
        new_route = self.route_table[packets[0].destination] if packets else None
        if new_route != output:
            self._head_route[chosen] = new_route
            inputs_for = self._inputs_for
            inputs = inputs_for[output] & ~(1 << chosen)
            inputs_for[output] = inputs
            if not inputs:
                self._headed &= ~(1 << output)
            if new_route is not None:
                inputs_for[new_route] |= 1 << chosen
                self._headed |= 1 << new_route
        if queue._owed_wakeups:
            queue._owed_wakeups -= 1
            queue._writer()
        elif queue._space_waiters:
            queue._space_waiters.popleft()()
        chosen += 1
        self.next_input[output] = chosen if chosen < self.radix else 0
        delay = packet.words * self.cycles_per_word
        # Popping may have exposed a new head packet bound for a sibling
        # output; let the whole switch re-scan (deferred to avoid deep
        # recursion).  Never elided: a packet arriving later in this same
        # cycle can give the re-scan real work (and conflict counts) only
        # visible at dispatch time.  One engine call queues both events:
        # this is the hottest scheduling site in the machine.
        self._schedule_pair(
            delay if delay > 0 else 1, self._finishers[output], self._wake_all
        )

    def _finish_hop(self, output: int) -> None:
        """End a transfer into the next stage's input queue.

        :meth:`SwitchInputQueue.push`, inline, then the same end of
        transfer as :meth:`_finish`.
        """
        packet = self.in_flight[output]
        sink = self.sink[output]
        words = packet.words
        # The space was checked at the grant and this output is the
        # queue's only writer, so this never fires.
        if words > sink.capacity_words - sink._used_words:
            sink._overflow(words)
        packets = sink._packets
        packets.append(packet)
        sink._used_words += words
        if sink._sanitizer is not None:
            sink._sanitizer.queue_pushed(sink, packet)
        downstream = sink._switch
        if len(packets) == 1:
            route = downstream.route_table[packet.destination]
            downstream._head_route[sink._index] = route
            downstream._inputs_for[route] |= sink._bit
            downstream._headed |= 1 << route
        if downstream._headed & downstream._idle or sink._sanitizer is not None:
            sink._wake_all()
        self.in_flight[output] = None
        self._idle |= 1 << output
        counters = self._trace_counters
        if counters is not None:
            slot = self._slot_packets
            if slot < 0:
                slot = self._slot_packets = counters.slot("packets_forwarded")
                self._slot_words = counters.slot("words_forwarded")
            values = counters.values
            values[slot] += 1
            values[self._slot_words] += words
        if self._inputs_for[output] or self._sanitizer is not None:
            self.wake(output)

    def _finish(self, output: int) -> None:
        """End a transfer into an exit queue: its push, inline."""
        packet = self.in_flight[output]
        sink = self.sink[output]
        words = packet.words
        # The space was checked at the grant and this output is the sink's
        # only writer, so this never fires.
        if words > sink.capacity_words - sink._used_words:
            sink._overflow(words)
        sink._packets.append(packet)
        sink._used_words += words
        if sink._sanitizer is not None:
            sink._sanitizer.queue_pushed(sink, packet)
        for listener in sink._item_listeners:
            listener()
        self.in_flight[output] = None
        self._idle |= 1 << output
        counters = self._trace_counters
        if counters is not None:
            slot = self._slot_packets
            if slot < 0:
                slot = self._slot_packets = counters.slot("packets_forwarded")
                self._slot_words = counters.slot("words_forwarded")
            values = counters.values
            values[slot] += 1
            values[self._slot_words] += words
        if self._inputs_for[output] or self._sanitizer is not None:
            self.wake(output)

    def connect_output(self, output: int, sink: BoundedWordQueue) -> None:
        """Wire ``output`` into a downstream queue.

        A switch input queue downstream gets :meth:`_finish_hop`; any
        other queue (a network exit queue) gets :meth:`_finish`.  Either
        way the sink takes this output's waker as its one writer.
        """
        finish = (
            CrossbarSwitch._finish_hop
            if isinstance(sink, SwitchInputQueue)
            else CrossbarSwitch._finish
        )
        sink.attach_writer(partial(CrossbarSwitch.wake, self, output))
        self._finishers[output] = partial(finish, self, output)
        self.sink[output] = sink
        self._idle |= 1 << output

    def occupancy_words(self) -> int:
        """Words currently buffered in this switch's input queues."""
        return sum(q.used_words for q in self.input_queues)
