"""Property-based tests: BoundedWordQueue under random interleavings.

A reference model (a plain list plus word counters) shadows the queue
through arbitrary push/pop sequences -- including pops re-entered from
item listeners, the way network delivery ports actually drain queues
-- and the sanitizer is armed throughout, so its capacity and credit
checks run on every operation without a single false positive.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.crossbar import CrossbarSwitch
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue


def _packet(words: int, destination: int = 0) -> Packet:
    return Packet(
        kind=PacketKind.READ_REQUEST, source=0, destination=destination,
        address=0, words=words,
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
        """The contract the crossbar masks are built on: after every push
        and pop, a switch input queue's head-route mask names the route
        of its actual head, and the per-output input masks and the
        ``_headed`` output mask agree."""
        switch = CrossbarSwitch(
            Engine(), radix=4, route_table=(0, 1, 2, 3),
            queue_words=8, name="heads",
        )
        queue = switch.input_queues[2]
        model = []
        for op, words in sequence:
            if op == "push":
                # Vary the route with the size so head changes are visible.
                packet = _packet(words, destination=words - 1)
                if queue.can_accept(packet):
                    queue.push(packet)
                    model.append(packet)
            elif model:
                queue.pop()
                model.pop(0)
            expected = model[0].destination if model else None
            assert switch._head_route == [None, None, expected, None]
            assert switch._inputs_for == [
                0b100 if expected == output else 0 for output in range(4)
            ]
            assert switch._headed == (0 if expected is None else 1 << expected)


#: A mixed stream on one 4x4 switch: pushes into any input (routed by
#: destination), direct pops of an input queue, pops that drain a sink
#: (whose space waiter re-scans an output and may grant), and engine
#: runs (transfers end and the switch re-scans).
switch_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"), st.integers(0, 3), st.integers(0, 3),
            st.integers(1, 4),
        ),
        st.tuples(st.just("pop"), st.integers(0, 3)),
        st.tuples(st.just("drain"), st.integers(0, 3)),
        st.tuples(st.just("run"),),
    ),
    max_size=60,
)


class TestGrantAndPopShareOneMaskRule:
    @settings(max_examples=60, deadline=None)
    @given(sequence=switch_ops)
    def test_direct_pops_and_grants_keep_the_masks(self, sequence):
        """A grant pops its input queue inline; ``SwitchInputQueue.pop`` is
        the other copy of the same head-route mask update.  Interleaving
        both on one switch with the sanitizer armed proves they agree:
        every scan re-derives the masks from the real queue heads."""
        with sanitize.sanitizing() as sanitizer:
            engine = Engine()
            switch = CrossbarSwitch(
                engine, radix=4, route_table=(0, 1, 2, 3),
                queue_words=4, name="mixed",
            )
            sinks = [BoundedWordQueue(4, name=f"sink{o}") for o in range(4)]
            for output, sink in enumerate(sinks):
                switch.connect_output(output, sink)
            pushed = popped = drained = 0
            for op, *args in sequence:
                if op == "push":
                    index, destination, words = args
                    queue = switch.input_queues[index]
                    packet = _packet(words, destination=destination)
                    if queue.can_accept(packet):
                        queue.push(packet)
                        pushed += 1
                elif op == "pop":
                    queue = switch.input_queues[args[0]]
                    if len(queue):
                        queue.pop()
                        popped += 1
                elif op == "drain":
                    sink = sinks[args[0]]
                    if len(sink):
                        sink.pop()
                        drained += 1
                else:
                    engine.run()
                sanitizer.check_crossbar_masks(switch)
            engine.run()
            sanitizer.check_crossbar_masks(switch)
        queued = sum(len(queue) for queue in switch.input_queues)
        buffered = sum(len(sink) for sink in sinks)
        assert pushed == popped + drained + queued + buffered
        assert sanitizer.violations == 0
