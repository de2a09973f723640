"""Bounded word-queues, the plumbing of the Cedar networks.

"A two word queue is used on each crossbar input and output port and flow
control between stages prevents queue overflow" (Section 2).  Queues are
measured in 64-bit words, so a four-word packet occupies four queue slots,
and a crossbar port forwards one word per cycle.

Flow control has two shapes.  A queue fed by a crossbar output is
*switch-fed*: that output is its only writer, so a blocked writer is one
signal per port.  The queue holds the writer's prebound waker once and
counts the wake-ups it owes (one per port conflict), so its waiting state
is two fields however long the port stays congested.  Any other queue
(a network entry queue, or a stand-alone one) keeps a deque of one-shot
endpoint waiters.  Each pop pays one owed wake-up, else fires the oldest
endpoint waiter; a queue never holds both kinds, so the order is the
order one shared deque would give.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.packet import Packet

Notification = Callable[[], None]


class BoundedWordQueue:
    """FIFO of packets with a capacity measured in words.

    Components interested in new arrivals register *item listeners*;
    components blocked on a full queue register one-shot *space waiters*
    that fire (in order) whenever words are freed.  A switch-fed queue
    (:meth:`attach_writer`) instead owes its one writer a count of
    wake-ups and refuses space waiters.
    """

    def __init__(self, capacity_words: int, name: str = "") -> None:
        if capacity_words < 1:
            raise ValueError(f"queue capacity must be >= 1 word, got {capacity_words}")
        self.capacity_words = capacity_words
        self.name = name
        self._packets: Deque[Packet] = deque()
        self._used_words = 0
        # A tuple snapshot: push() iterates it directly (no per-push copy);
        # add_item_listener rebuilds it, so a listener registered during a
        # push is first called on the next push -- the same semantics the
        # old copy-then-iterate list gave.
        self._item_listeners: Tuple[Notification, ...] = ()
        self._space_waiters: Deque[Notification] = deque()
        #: The one upstream writer of a switch-fed queue, else None.
        self._writer: Optional[Notification] = None
        #: Wake-ups owed to ``_writer``: one per port conflict on this queue.
        self._owed_wakeups = 0
        #: Armed invariant checker or None; one is-not-None test per
        #: push/pop keeps the unsanitized path pay-for-use.
        self._sanitizer = sanitize.current()

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def used_words(self) -> int:
        return self._used_words

    @property
    def free_words(self) -> int:
        return self.capacity_words - self._used_words

    def head(self) -> Optional[Packet]:
        """The packet at the front, or None when empty."""
        return self._packets[0] if self._packets else None

    def can_accept(self, packet: Packet) -> bool:
        return packet.words <= self.free_words

    def push(self, packet: Packet) -> None:
        """Enqueue; the caller must have checked :meth:`can_accept`."""
        words = packet.words
        if words > self.capacity_words - self._used_words:
            self._overflow(words)
        packets = self._packets
        packets.append(packet)
        self._used_words += words
        if self._sanitizer is not None:
            # Checked before listeners fire, so the sanitizer sees the
            # settled queue state rather than cascading reactions to it.
            self._sanitizer.queue_pushed(self, packet)
        for listener in self._item_listeners:
            listener()

    def pop(self) -> Packet:
        """Dequeue the head packet and wake one blocked upstream writer."""
        packets = self._packets
        if not packets:
            self._underflow()
        packet = packets.popleft()
        self._used_words -= packet.words
        if self._sanitizer is not None:
            self._sanitizer.queue_popped(self, packet)
        if self._owed_wakeups:
            self._owed_wakeups -= 1
            self._writer()
        elif self._space_waiters:
            self._space_waiters.popleft()()
        return packet

    def add_item_listener(self, listener: Notification) -> None:
        """Call ``listener`` after every push (permanent subscription)."""
        self._item_listeners += (listener,)

    def wait_for_space(self, waiter: Notification) -> None:
        """Call ``waiter`` once, the next time words are freed."""
        if self._writer is not None:
            raise SimulationError(
                f"queue {self.name} is switch-fed: its writer's wake-ups "
                "are counted, not queued"
            )
        self._space_waiters.append(waiter)

    def attach_writer(self, waker: Notification) -> None:
        """Make this queue switch-fed, with ``waker`` as its one writer.

        A port conflict then adds one to ``_owed_wakeups`` and each pop
        pays one back by calling ``waker``.
        """
        if self._writer is not None or self._space_waiters:
            raise SimulationError(
                f"queue {self.name} already has a writer or space waiters"
            )
        self._writer = waker

    def _overflow(self, words: int) -> None:
        raise SimulationError(
            f"queue {self.name or '<anonymous>'} overflow: "
            f"{words} words into {self.free_words} free"
        )

    def _underflow(self) -> None:
        raise SimulationError(f"pop from empty queue {self.name or '<anonymous>'}")
