"""Property-based tests: BoundedWordQueue under random interleavings.

A reference model (a plain list plus word counters) shadows the queue
through arbitrary push/pop sequences -- including pops re-entered from
item listeners, the way crossbar arbiters and links actually drain queues
-- and the sanitizer is armed throughout, so its capacity and credit
checks run on every operation without a single false positive.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue


def _packet(words: int) -> Packet:
    return Packet(
        kind=PacketKind.READ_REQUEST, source=0, destination=0, address=0,
        words=words,
    )


#: An operation stream: push of a 1..4-word packet, or a pop attempt.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(1, 4)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=80,
)


class TestRandomInterleavings:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 8), sequence=ops)
    def test_queue_matches_reference_model(self, capacity, sequence):
        with sanitize.sanitizing() as sanitizer:
            queue = BoundedWordQueue(capacity, name="prop")
        model = []
        mutations = 0
        for op, words in sequence:
            if op == "push":
                packet = _packet(words)
                if words <= capacity - sum(p.words for p in model):
                    queue.push(packet)
                    model.append(packet)
                    mutations += 1
                else:
                    with pytest.raises(SimulationError, match="overflow"):
                        queue.push(packet)
            else:
                if model:
                    assert queue.pop() is model.pop(0)
                    mutations += 1
                else:
                    with pytest.raises(SimulationError, match="empty"):
                        queue.pop()
            assert queue.used_words == sum(p.words for p in model)
            assert queue.free_words == capacity - queue.used_words
            assert len(queue) == len(model)
            assert queue.head() is (model[0] if model else None)
        assert sanitizer.violations == 0
        # One capacity + one credit check per successful push/pop, exactly.
        assert sanitizer.checks.get("queue.capacity", 0) == mutations
        assert sanitizer.checks.get("flow_control.credit", 0) == mutations

    @settings(max_examples=40, deadline=None)
    @given(words=st.lists(st.integers(1, 4), min_size=1, max_size=40))
    def test_greedy_drain_listener_reentrancy(self, words):
        """An item listener popping the queue mid-push (a crossbar/sink pattern)
        must see consistent state and preserve FIFO order."""
        with sanitize.sanitizing() as sanitizer:
            queue = BoundedWordQueue(4, name="drain")
        drained = []

        def drain() -> None:
            while queue.head() is not None:
                drained.append(queue.pop())

        queue.add_item_listener(drain)
        pushed = []
        for count in words:
            packet = _packet(count)
            queue.push(packet)  # the listener empties it before we return
            pushed.append(packet)
            assert queue.used_words == 0
        assert drained == pushed
        assert sanitizer.violations == 0

    @settings(max_examples=40, deadline=None)
    @given(sequence=ops)
    def test_head_listener_fires_on_every_head_change(self, sequence):
        """The head listener contract the crossbar masks are built on:
        fire on push-into-empty and on every pop, never otherwise."""
        queue = BoundedWordQueue(8, name="heads")
        observed = []
        queue.set_head_listener(lambda: observed.append(queue.head()))
        expected = []
        model = []
        for op, words in sequence:
            if op == "push":
                packet = _packet(words)
                if queue.can_accept(packet):
                    was_empty = not model
                    queue.push(packet)
                    model.append(packet)
                    if was_empty:
                        expected.append(packet)
            elif model:
                queue.pop()
                model.pop(0)
                expected.append(model[0] if model else None)
        assert observed == expected
