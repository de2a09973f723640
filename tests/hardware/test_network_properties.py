"""Property-based tests: network conservation invariants.

Under arbitrary admissible traffic the network must deliver every packet
exactly once, to the right port, unmodified -- no loss, duplication or
misrouting regardless of contention patterns.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind


@st.composite
def traffic(draw):
    """A list of (source, destination, words) triples."""
    count = draw(st.integers(1, 40))
    return [
        (
            draw(st.integers(0, 31)),
            draw(st.integers(0, 31)),
            draw(st.integers(1, 4)),
        )
        for _ in range(count)
    ]


class TestConservation:
    @settings(max_examples=40, deadline=None)
    @given(traffic())
    def test_every_packet_delivered_exactly_once(self, flows):
        engine = Engine()
        network = OmegaNetwork(engine, 32, DEFAULT_CONFIG.network)
        received = []
        for port in range(32):
            network.attach_sink(port, received.append)

        pending = {}
        for index, (source, destination, words) in enumerate(flows):
            packet = Packet(
                kind=PacketKind.READ_REQUEST,
                source=source,
                destination=destination,
                address=destination,
                words=words,
                request_tag=index,
            )
            pending[index] = packet

        queue = list(pending.values())

        def pump():
            # Injection can synchronously pop the entry queue (arbiter wake),
            # firing entry-space waiters -- i.e. re-entering pump -- mid-loop.
            # Claim the whole backlog first so a re-entrant call never sees
            # (and re-injects) a packet this frame is already handling.
            todo = queue[:]
            queue.clear()
            for packet in todo:
                if not network.try_inject(packet.source, packet):
                    queue.append(packet)
            if queue:
                network.on_entry_space(queue[0].source, pump)

        pump()
        engine.run()
        # Retry anything still queued (space callbacks fire once per pop).
        guard = 0
        while queue and guard < 10_000:
            pump()
            engine.run()
            guard += 1

        assert len(received) == len(flows)
        tags = Counter(p.request_tag for p in received)
        assert all(count == 1 for count in tags.values())
        for packet in received:
            original = pending[packet.request_tag]
            assert packet is original  # unmodified object, right port
            assert packet.destination == original.destination

    @settings(max_examples=20, deadline=None)
    @given(traffic())
    def test_network_drains_completely(self, flows):
        engine = Engine()
        network = OmegaNetwork(engine, 32, DEFAULT_CONFIG.network)
        for port in range(32):
            network.attach_sink(port, lambda p: None)
        for source, destination, words in flows[:10]:
            network.try_inject(
                source,
                Packet(
                    kind=PacketKind.READ_REQUEST, source=source,
                    destination=destination, address=destination, words=words,
                ),
            )
        engine.run()
        assert network.occupancy_words() == 0
