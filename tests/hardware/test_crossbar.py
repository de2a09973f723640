"""Tests for the flat crossbar switch and its owed writer wake-ups."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, MAX_SWITCH_RADIX
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.crossbar import CrossbarSwitch, lowest_set_bit
from repro.hardware.engine import Engine
from repro.hardware.machine import CedarMachine
from repro.hardware.memory import MemoryModule
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue
from repro.kernels.vector_load import vector_load_kernel
from repro.trace import Tracer
from tests.hardware.reference_crossbar import first_in_rotation


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
    def test_rescans_owe_wakeups_and_pops_pay_them(self, rescans):
        tracer = Tracer(enabled=True)
        with sanitize.sanitizing() as sanitizer:
            switch = make_switch(tracer)
            sink = BoundedWordQueue(rescans, name="sink")
            switch.connect_output(0, sink)
            for _ in range(rescans):
                sink.push(packet())                  # the sink is full
            blocked = packet()
            switch.input_queues[2].push(blocked)     # first scan: conflict
            for _ in range(rescans - 1):
                switch.wake(0)                       # each re-scan: conflict
            totals = tracer.counter_totals()["x"]
            assert totals["port_conflicts"] == rescans
            assert sink._owed_wakeups == rescans and not sink._space_waiters
            woken = []
            writer = sink._writer
            sink._writer = lambda: (woken.append(sink.free_words), writer())
            for _ in range(rescans):
                sink.pop()                           # pays one wake-up
            # The first re-scan grants; the rest find the output busy.
            assert woken == list(range(1, rescans + 1))
            assert sink._owed_wakeups == 0
            assert switch.in_flight[0] is blocked
            switch.engine.run()
            assert sink.pop() is blocked             # nothing left owed
            assert len(woken) == rescans
        assert sanitizer.violations == 0
        assert tracer.counter_totals()["x"]["port_conflicts"] == rescans

    def test_waiter_rescans_its_output_when_space_frees(self):
        switch = make_switch()
        sink = BoundedWordQueue(1, name="sink")
        switch.connect_output(0, sink)
        sink.push(packet())
        blocked = packet()
        switch.input_queues[2].push(blocked)
        assert switch._idle == 0b0001              # only output 0 is wired
        sink.pop()                                   # pays the wake-up
        assert switch._idle == 0 and switch.in_flight[0] is blocked
        assert switch.next_input[0] == 3
        switch.engine.run()
        assert sink.head() is blocked
        assert switch.in_flight == [None] * 4 and switch._idle == 0b0001


class TestSwitchFedQueues:
    """A crossbar output is its sink's one writer: the sink counts the
    wake-ups it owes that writer and takes no other space waiter."""

    def test_wait_for_space_on_a_switch_fed_queue_raises(self):
        switch = make_switch()
        sink = BoundedWordQueue(1, name="sink")
        switch.connect_output(0, sink)
        with pytest.raises(SimulationError, match="switch-fed"):
            sink.wait_for_space(lambda: None)

    def test_wait_for_space_on_a_later_stage_input_raises(self):
        network = OmegaNetwork(Engine(), 16, DEFAULT_CONFIG.network, name="n")
        assert network.num_stages > 1
        with pytest.raises(SimulationError, match="switch-fed"):
            network.stages[1][0].input_queues[0].wait_for_space(lambda: None)
        network._entry_queues[0].wait_for_space(lambda: None)  # endpoint side

    def test_a_sink_takes_one_writer(self):
        switch = make_switch()
        sink = BoundedWordQueue(1, name="sink")
        switch.connect_output(0, sink)
        with pytest.raises(SimulationError, match="already has a writer"):
            switch.connect_output(1, sink)

    def test_contended_run_queues_no_waiter_on_switch_fed_queues(self):
        """After a conflict-heavy run every blocked writer's wait is one
        integer on its sink; the waiter deques hold nothing."""
        tracer = Tracer(max_records=0)
        machine = CedarMachine(DEFAULT_CONFIG, tracer=tracer)
        machine.run_kernel(vector_load_kernel(DEFAULT_CONFIG, blocks=4), 32)
        conflicts = sum(
            totals.get("port_conflicts", 0)
            for totals in tracer.counter_totals().values()
        )
        assert conflicts > 0
        queues = [
            queue
            for network in (machine.forward, machine.reverse)
            for queue in network._buffers
            if queue._writer is not None
        ]
        assert queues
        assert not any(queue._space_waiters for queue in queues)
        assert sum(queue._owed_wakeups for queue in queues) > 0


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
            switch.engine.run()
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


class TestArbitrationTable:
    """``lowest[mask]`` is the arbiter's truth table: for every radix a
    machine can be built with, every pointer and every input mask, its
    pick is the bit formula's and the reference arbiter's."""

    @pytest.mark.parametrize("radix", [2, 4, 8, 16])
    def test_table_pick_is_the_formula_and_the_reference_choice(self, radix):
        lowest = lowest_set_bit(radix)
        assert len(lowest) == 1 << radix and lowest[0] == -1
        mismatches = []
        for inputs in range(1, 1 << radix):
            head_route = [0 if inputs >> i & 1 else None for i in range(radix)]
            for start in range(radix):
                pick = inputs >> start << start or inputs
                table = lowest[pick]
                if not (
                    table == (pick & -pick).bit_length() - 1
                    == first_in_rotation(head_route, 0, start)
                ):
                    mismatches.append((inputs, start, table))
        assert mismatches == []

    def test_switches_of_one_radix_share_one_table(self):
        first, second = make_switch(), make_switch()
        assert first._lowest is second._lowest is lowest_set_bit(4)

    @pytest.mark.parametrize("radix", [1, MAX_SWITCH_RADIX + 1])
    def test_radix_without_a_table_is_refused(self, radix):
        with pytest.raises(ValueError, match="crossbar radix"):
            CrossbarSwitch(Engine(), radix=radix, route_table=(0,), queue_words=8)


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
    waiters = reverse._entry_queues[0]._space_waiters
    assert len(waiters) == 3
    assert {id(w) for w in waiters} == {id(module._retry_waiter)}
