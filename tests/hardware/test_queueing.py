"""Tests for bounded word-queues."""

import pytest

from repro.errors import SimulationError
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


class TestHeadListener:
    def test_fires_on_push_into_empty_and_on_pop(self):
        queue = BoundedWordQueue(8)
        heads = []
        queue.set_head_listener(lambda: heads.append(queue.head()))
        first, second = packet(destination=1), packet(destination=2)
        queue.push(first)          # empty -> first
        queue.push(second)         # head unchanged: no notification
        assert heads == [first]
        queue.pop()                # head becomes second
        queue.pop()                # head becomes None
        assert heads == [first, second, None]

    def test_fires_before_item_listeners(self):
        queue = BoundedWordQueue(8)
        order = []
        queue.set_head_listener(lambda: order.append("head"))
        queue.add_item_listener(lambda: order.append("item"))
        queue.push(packet())
        assert order == ["head", "item"]

    def test_fires_before_space_waiters(self):
        queue = BoundedWordQueue(1)
        order = []
        queue.push(packet())
        queue.set_head_listener(lambda: order.append("head"))
        queue.wait_for_space(lambda: order.append("space"))
        queue.pop()
        assert order == ["head", "space"]

    def test_second_listener_rejected(self):
        queue = BoundedWordQueue(8)
        queue.set_head_listener(lambda: None)
        with pytest.raises(SimulationError, match="head listener"):
            queue.set_head_listener(lambda: None)

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
