"""Tests for the multistage shuffle-exchange network."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, NetworkConfig
from repro.errors import ConfigurationError
from repro.hardware.crossbar import CrossbarSwitch, SwitchInputQueue
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork, _digit
from repro.hardware.packet import Packet, PacketKind


def make_network(ports=32):
    engine = Engine()
    network = OmegaNetwork(engine, ports, DEFAULT_CONFIG.network, name="t")
    return engine, network


def request(source, destination, words=1):
    return Packet(
        kind=PacketKind.READ_REQUEST, source=source, destination=destination,
        address=destination, words=words,
    )


class TestTopology:
    def test_32_ports_needs_two_stages_of_8x8(self):
        _, network = make_network(32)
        assert network.num_stages == 2
        assert network.num_lines == 64
        assert all(len(row) == 8 for row in network.stages)

    def test_tiny_network_one_stage(self):
        _, network = make_network(8)
        assert network.num_stages == 1

    def test_rejects_too_few_ports(self):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            OmegaNetwork(engine, 1, DEFAULT_CONFIG.network)

    @pytest.mark.parametrize("radix", [2, 4, 8])
    def test_finisher_per_output(self, radix):
        """Outputs feeding the next stage push inline; last-stage outputs
        feed exit queues through the queue's own push."""
        config = NetworkConfig(switch_radix=radix)
        network = OmegaNetwork(Engine(), 32, config, name="t")
        last = network.num_stages - 1
        assert last >= 1
        for stage, row in enumerate(network.stages):
            expected = (
                CrossbarSwitch._finish if stage == last
                else CrossbarSwitch._finish_hop
            )
            for switch in row:
                for output, finisher in enumerate(switch._finishers):
                    assert finisher.func is expected
                    assert finisher.args == (switch, output)
                    assert isinstance(switch.sink[output], SwitchInputQueue) == (
                        stage < last
                    )

    def test_switch_line_mapping_inverse(self):
        _, network = make_network(32)
        for stage in range(network.num_stages):
            for line in range(network.num_lines):
                sw, port = network._switch_for(stage, line)
                assert network._line_for(stage, sw, port) == line


    @pytest.mark.parametrize("radix", [2, 4, 8])
    @pytest.mark.parametrize("ports", [2, 5, 8, 16, 33, 64])
    def test_every_switch_output_sink_has_one_writer(self, radix, ports):
        """A crossbar output checks its sink's space at the grant and pushes
        at the end of the transfer; that is only safe because no other
        output writes the same queue, in either network of a machine."""
        engine = Engine()
        config = NetworkConfig(switch_radix=radix)
        for name in ("fwd", "rev"):
            network = OmegaNetwork(engine, ports, config, name=name)
            writers = {}
            for row in network.stages:
                for switch in row:
                    for output, sink in enumerate(switch.sink):
                        assert sink is not None
                        writers.setdefault(id(sink), []).append(
                            (switch.name, output)
                        )
            assert all(len(w) == 1 for w in writers.values()), writers
            wired = sum(len(row) * radix for row in network.stages)
            assert len(writers) == wired

    def test_route_tables_follow_the_destination_digits(self):
        _, network = make_network(32)
        for stage, row in enumerate(network.stages):
            position = network.num_stages - 1 - stage
            expected = [
                _digit(line, position, network.radix)
                for line in range(network.num_lines)
            ]
            for switch in row:
                assert list(switch.route_table) == expected


class TestDelivery:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 31), st.integers(0, 31))
    def test_unique_path_delivers_to_destination(self, source, destination):
        engine, network = make_network(32)
        received = []
        network.attach_sink(destination, received.append)
        assert network.try_inject(source, request(source, destination))
        engine.run()
        assert len(received) == 1
        assert received[0].destination == destination

    def test_all_to_all_delivery(self):
        engine, network = make_network(32)
        received = {port: [] for port in range(32)}
        for port in range(32):
            network.attach_sink(port, received[port].append)
        for source in range(32):
            destination = (source * 7 + 3) % 32
            assert network.try_inject(source, request(source, destination))
        engine.run()
        total = sum(len(v) for v in received.values())
        assert total == 32
        for port, packets in received.items():
            for packet in packets:
                assert packet.destination == port

    def test_duplicate_sink_rejected(self):
        _, network = make_network(32)
        network.attach_sink(3, lambda p: None)
        with pytest.raises(ConfigurationError):
            network.attach_sink(3, lambda p: None)


class TestFlowControl:
    def test_entry_queue_fills_and_injection_fails(self):
        engine, network = make_network(32)
        # No sink drains port 0: packets pile up through back-pressure.
        accepted = 0
        while network.try_inject(0, request(0, 0)):
            accepted += 1
            engine.run(until=engine.now + 50)
            if accepted > 100:
                break
        # Finite buffering: stages have 2x2-word queues per port.
        assert accepted < 30

    def test_on_entry_space_wakes_after_drain(self):
        engine, network = make_network(32)
        delivered = []
        # Fill entry queue without a drain on stage arbiters.
        blockers = 0
        while network.try_inject(0, request(0, 0)):
            blockers += 1
        woken = []
        network.on_entry_space(0, lambda: woken.append(True))
        network.attach_sink(0, delivered.append)
        engine.run()
        assert woken == [True]
        assert len(delivered) == blockers

    def test_occupancy_counts_buffered_words(self):
        engine, network = make_network(32)
        # No sink: packets come to rest in the delivery queue.
        network.try_inject(0, request(0, 0))
        network.try_inject(0, request(0, 0))
        engine.run()
        assert network.occupancy_words() == 2

    def test_occupancy_zero_after_drain(self):
        engine, network = make_network(32)
        network.attach_sink(0, lambda p: None)
        network.try_inject(0, request(0, 0))
        engine.run()
        assert network.occupancy_words() == 0


class TestContention:
    def test_many_to_one_serializes(self):
        engine, network = make_network(32)
        received = []
        network.attach_sink(5, received.append)
        senders = list(range(8))
        pending = {s: 4 for s in senders}

        def pump(source):
            while pending[source] and network.try_inject(
                source, request(source, 5)
            ):
                pending[source] -= 1
            if pending[source]:
                network.on_entry_space(source, lambda: pump(source))

        for s in senders:
            pump(s)
        engine.run()
        assert len(received) == 32
        # One output port at one word/cycle: 32 packets need >= 32 cycles.
        assert engine.now >= 32
