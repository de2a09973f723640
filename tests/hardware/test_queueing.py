"""Tests for bounded word-queues."""

import pytest

from repro.errors import SimulationError
from repro.hardware.crossbar import CrossbarSwitch
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue


def packet(words=1, destination=0):
    return Packet(
        kind=PacketKind.READ_REQUEST, source=0, destination=destination,
        address=0, words=words,
    )


class TestBoundedWordQueue:
    def test_capacity_in_words_not_packets(self):
        queue = BoundedWordQueue(4)
        queue.push(packet(words=3))
        assert not queue.can_accept(packet(words=2))
        assert queue.can_accept(packet(words=1))

    def test_fifo_order(self):
        queue = BoundedWordQueue(8)
        first, second = packet(), packet()
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_overflow_raises(self):
        queue = BoundedWordQueue(1)
        queue.push(packet())
        with pytest.raises(SimulationError):
            queue.push(packet())

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            BoundedWordQueue(2).pop()

    def test_item_listener_fires_on_push(self):
        queue = BoundedWordQueue(4)
        events = []
        queue.add_item_listener(lambda: events.append(len(queue)))
        queue.push(packet())
        queue.push(packet())
        assert events == [1, 2]

    def test_space_waiter_fires_once_on_pop(self):
        queue = BoundedWordQueue(1)
        queue.push(packet())
        woken = []
        queue.wait_for_space(lambda: woken.append("a"))
        queue.wait_for_space(lambda: woken.append("b"))
        queue.pop()
        assert woken == ["a"]  # one waiter per freed slot
        queue.push(packet())
        queue.pop()
        assert woken == ["a", "b"]

    def test_word_accounting(self):
        queue = BoundedWordQueue(8)
        queue.push(packet(words=3))
        assert queue.used_words == 3
        assert queue.free_words == 5
        queue.pop()
        assert queue.used_words == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedWordQueue(0)


def switch_queue(queue_words=8):
    """A radix-4 switch with no outputs wired, and its input queue 1."""
    switch = CrossbarSwitch(
        Engine(), radix=4, route_table=(0, 1, 2, 3),
        queue_words=queue_words, name="x",
    )
    return switch, switch.input_queues[1]


class TestHeadListener:
    """Head-change tracking on a crossbar input queue.

    The switch's input queues keep its head-route masks inline: a push
    into an empty queue and every pop re-derive them before the switch
    wakes or a space waiter runs.  Input 1 is bit ``0b10`` of an input
    mask; output ``o`` is bit ``1 << o`` of ``_headed``.
    """

    def test_fires_on_push_into_empty_and_on_pop(self):
        switch, queue = switch_queue()
        first, second = packet(destination=1), packet(destination=2)
        queue.push(first)          # empty -> first
        assert switch._head_route[1] == 1
        assert switch._inputs_for == [0, 0b10, 0, 0]
        assert switch._headed == 0b0010
        queue.push(second)         # head unchanged
        assert switch._head_route[1] == 1
        assert switch._inputs_for == [0, 0b10, 0, 0]
        assert switch._headed == 0b0010
        queue.pop()                # head becomes second
        assert switch._head_route[1] == 2
        assert switch._inputs_for == [0, 0, 0b10, 0]
        assert switch._headed == 0b0100
        queue.pop()                # head becomes None
        assert switch._head_route[1] is None
        assert switch._inputs_for == [0, 0, 0, 0]
        assert switch._headed == 0
        assert switch._idle == 0   # no output wired

    def test_fires_before_item_listeners(self):
        switch, queue = switch_queue()
        sink = BoundedWordQueue(8, name="sink")
        switch.connect_output(3, sink)
        seen = []
        # The switch-wide wake takes the place of an item listener; it is
        # only called once the masks show a headed idle output.
        queue._wake_all = lambda: seen.append(
            (switch._inputs_for[3], switch._headed & switch._idle)
        )
        queue.push(packet(destination=2))    # output 2 is unwired: no wake
        assert seen == []
        queue.pop()
        queue.push(packet(destination=3))
        assert seen == [(0b10, 0b1000)]

    def test_fires_before_space_waiters(self):
        switch, queue = switch_queue(queue_words=1)
        seen = []
        queue.push(packet(destination=2))
        queue.wait_for_space(lambda: seen.append(switch._head_route[1]))
        queue.pop()
        assert seen == [None]

    def test_second_listener_rejected(self):
        _, queue = switch_queue()
        with pytest.raises(SimulationError, match="only its switch"):
            queue.add_item_listener(lambda: None)

    def test_listener_registered_mid_push_fires_next_push(self):
        queue = BoundedWordQueue(8)
        calls = []
        queue.add_item_listener(
            lambda: queue.add_item_listener(lambda: calls.append("late"))
            if not calls and not queue._item_listeners[1:]
            else None
        )
        queue.push(packet())   # registers the late listener; must not fire yet
        assert calls == []
        queue.push(packet())
        assert calls == ["late"]
