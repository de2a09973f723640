"""Tests for the flat crossbar switch and its prebound space waiters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.hardware import sanitize
from repro.hardware.crossbar import CrossbarSwitch
from repro.hardware.engine import Engine
from repro.hardware.memory import MemoryModule
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue
from repro.trace import Tracer


def packet(destination=0, words=1):
    return Packet(
        kind=PacketKind.READ_REQUEST, source=0, destination=destination,
        address=0, words=words,
    )


def make_switch(tracer=None):
    return CrossbarSwitch(
        Engine(), radix=4, route_table=(0, 1, 2, 3),
        queue_words=8, name="x", tracer=tracer,
    )


class TestPortConflicts:
    @pytest.mark.parametrize("rescans", [1, 2, 5])
    def test_each_rescan_counts_and_queues_the_same_waiter(self, rescans):
        tracer = Tracer(enabled=True)
        with sanitize.sanitizing() as sanitizer:
            switch = make_switch(tracer)
            sink = BoundedWordQueue(1, name="sink")
            switch.connect_output(0, sink)
            sink.push(packet())                      # the sink is full
            switch.input_queues[2].push(packet())    # first scan: conflict
            for _ in range(rescans - 1):
                switch.wake(0)                       # each re-scan: conflict
        assert sanitizer.violations == 0
        totals = tracer.counter_totals()["x"]
        assert totals["port_conflicts"] == rescans
        assert len(sink._space_waiters) == rescans
        assert len({id(w) for w in sink._space_waiters}) == 1

    def test_waiter_rescans_its_output_when_space_frees(self):
        switch = make_switch()
        sink = BoundedWordQueue(1, name="sink")
        switch.connect_output(0, sink)
        sink.push(packet())
        blocked = packet()
        switch.input_queues[2].push(blocked)
        assert switch._idle == 0b0001              # only output 0 is wired
        sink.pop()                                   # fires the waiter
        assert switch._idle == 0 and switch.in_flight[0] is blocked
        assert switch.next_input[0] == 3
        switch.engine.run_until_idle()
        assert sink.head() is blocked
        assert switch.in_flight == [None] * 4 and switch._idle == 0b0001


class TestRoundRobin:
    def test_grants_rotate_past_the_last_winner(self):
        with sanitize.sanitizing() as sanitizer:
            switch = make_switch()
            sink = BoundedWordQueue(64, name="sink")
            switch.connect_output(1, sink)
            for index in (3, 0, 2):
                for k in range(2):
                    switch.input_queues[index].push(
                        Packet(
                            kind=PacketKind.READ_REQUEST, source=index,
                            destination=1, address=0, words=1,
                            request_tag=10 * index + k,
                        )
                    )
            switch.engine.run_until_idle()
        assert sanitizer.violations == 0
        assert [p.request_tag for p in sink._packets] == [30, 0, 20, 31, 1, 21]
        assert switch.occupancy_words() == 0


@st.composite
def arbitration_states(draw):
    """(radix, non-empty input mask, round-robin pointer)."""
    radix = draw(st.integers(2, 8))
    inputs = draw(st.integers(1, (1 << radix) - 1))
    return radix, inputs, draw(st.integers(0, radix - 1))


class TestBitPick:
    """The lowest set bit of ``inputs >> start << start or inputs`` is the
    first head-routed input in rotation order from the pointer."""

    @settings(max_examples=200, deadline=None)
    @given(state=arbitration_states(), whole_switch=st.booleans())
    def test_pick_is_first_match_in_rotation_order(self, state, whole_switch):
        radix, inputs, start = state
        with sanitize.sanitizing() as sanitizer:
            switch = CrossbarSwitch(
                Engine(), radix=radix, route_table=(0,), queue_words=8,
                name="pick",
            )
            heads = {}
            for index in range(radix):
                if inputs >> index & 1:
                    heads[index] = packet()
                    switch.input_queues[index].push(heads[index])
            assert switch._inputs_for[0] == inputs
            switch.next_input[0] = start
            switch.connect_output(0, BoundedWordQueue(8, name="sink"))
            if whole_switch:
                switch.wake_all()
            else:
                switch.wake(0)
        rotation = list(range(start, radix)) + list(range(start))
        expected = next(i for i in rotation if inputs >> i & 1)
        assert switch.in_flight[0] is heads[expected]
        assert switch.next_input[0] == (expected + 1) % radix
        assert sanitizer.violations == 0  # the shadow arbiter agreed


def test_failed_reply_injections_requeue_one_waiter():
    """A saturated reverse network re-queues the module's one bound waiter."""
    engine = Engine()
    reverse = OmegaNetwork(engine, 8, DEFAULT_CONFIG.network, name="rev")
    module = MemoryModule(
        engine=engine, index=0, config=DEFAULT_CONFIG.global_memory,
        sync_config=DEFAULT_CONFIG.sync,
        forward_queue=BoundedWordQueue(8, name="fwd"), reverse=reverse,
    )
    reverse.try_inject = lambda port, reply: False  # entry always full
    module._pending_reply = packet()
    for _ in range(3):
        module._retry_reply()
    waiters = reverse.entry_queue(0)._space_waiters
    assert len(waiters) == 3
    assert {id(w) for w in waiters} == {id(module._retry_waiter)}
