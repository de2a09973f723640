"""Tests for network packets."""

import pytest

from repro.hardware.packet import MAX_PACKET_WORDS, Packet, PacketKind


def test_packet_word_bounds():
    with pytest.raises(ValueError):
        Packet(PacketKind.READ_REQUEST, 0, 1, 0, words=0)
    with pytest.raises(ValueError):
        Packet(PacketKind.READ_REQUEST, 0, 1, 0, words=MAX_PACKET_WORDS + 1)


def test_negative_ports_rejected():
    with pytest.raises(ValueError):
        Packet(PacketKind.READ_REQUEST, -1, 0, 0)


def test_reply_swaps_endpoints_and_keeps_tag():
    request = Packet(
        PacketKind.READ_REQUEST, source=7, destination=13, address=99,
        request_tag=42, payload={"k": 1},
    )
    reply = request.reply(PacketKind.READ_REPLY, words=1, issue_cycle=55)
    assert reply.source == 13
    assert reply.destination == 7
    assert reply.request_tag == 42
    assert reply.address == 99
    assert reply.issue_cycle == 55
    assert reply.payload == {"k": 1}


def test_reply_payload_override():
    request = Packet(PacketKind.SYNC_REQUEST, 0, 1, 0, payload="op")
    reply = request.reply(PacketKind.SYNC_REPLY, 1, 0, payload="outcome")
    assert reply.payload == "outcome"


def test_packet_ids_unique():
    a = Packet(PacketKind.READ_REQUEST, 0, 1, 0)
    b = Packet(PacketKind.READ_REQUEST, 0, 1, 0)
    assert a.packet_id != b.packet_id


class TestSlottedContract:
    """Packet is a ``__slots__`` record with a hand-written constructor."""

    def test_no_instance_dict(self):
        packet = Packet(PacketKind.READ_REQUEST, 0, 1, 0)
        assert not hasattr(packet, "__dict__")

    def test_unknown_attribute_rejected(self):
        packet = Packet(PacketKind.READ_REQUEST, 0, 1, 0)
        with pytest.raises(AttributeError):
            packet.colour = "red"

    @pytest.mark.parametrize("words", [0, MAX_PACKET_WORDS + 1])
    def test_word_bound_message(self, words):
        with pytest.raises(ValueError) as excinfo:
            Packet(PacketKind.READ_REQUEST, 0, 1, 0, words=words)
        assert str(excinfo.value) == (
            f"packets carry 1..{MAX_PACKET_WORDS} words, got {words}"
        )

    @pytest.mark.parametrize("source, destination", [(-1, 0), (0, -1)])
    def test_negative_port_message(self, source, destination):
        with pytest.raises(ValueError) as excinfo:
            Packet(PacketKind.READ_REQUEST, source, destination, 0)
        assert str(excinfo.value) == "ports are non-negative indices"

    def test_packet_ids_strictly_increase(self):
        first = Packet(PacketKind.READ_REQUEST, 0, 1, 0)
        second = Packet(PacketKind.SYNC_REQUEST, 2, 3, 4, words=2)
        reply = second.reply(PacketKind.SYNC_REPLY, 1, 9)
        third = Packet(PacketKind.WRITE_REQUEST, 0, 1, 0, words=4)
        ids = [p.packet_id for p in (first, second, reply, third)]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_repr_names_kind_and_endpoints(self):
        text = repr(Packet(PacketKind.WRITE_REQUEST, 5, 11, 0, words=2))
        assert "WRITE_REQUEST" in text
        assert "source=5" in text
        assert "destination=11" in text
