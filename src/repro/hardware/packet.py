"""Network packets (Section 2, "Global Network").

"Each network packet consists of one to four 64-bit words, the first word
containing routing and control information and the memory address."

Every word of every request and reply is a :class:`Packet`, and each one
crosses four or more crossbar hops, so the class is a ``__slots__`` record
with a hand-written constructor: no instance ``__dict__``, no generated
field machinery, and its ``packet_id`` drawn straight from a process-wide
counter.  Equality is identity (ids are unique per construction).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

_packet_ids = itertools.count()

#: Packets carry one to four 64-bit words.
MAX_PACKET_WORDS = 4


class PacketKind(enum.Enum):
    """What a packet asks the far end to do."""

    READ_REQUEST = "read-request"
    WRITE_REQUEST = "write-request"
    READ_REPLY = "read-reply"
    WRITE_ACK = "write-ack"
    SYNC_REQUEST = "sync-request"
    SYNC_REPLY = "sync-reply"


class Packet:
    """One packet travelling the forward or reverse network.

    Attributes:
        kind: Request/reply type.
        source: Originating port (CE index on the forward network, memory
            module on the reverse network).
        destination: Target port on the network the packet rides.
        address: Global memory word address carried in the header word.
        words: Total packet length in 64-bit words including the header.
        issue_cycle: When the originator injected the packet (for latency
            measurement by the performance monitor).
        request_tag: Ties a reply back to the request (PFU slot, CE load id).
        payload: Free-form control payload (synchronization operands,
            outcomes).  In hardware this rides in the packet's control
            word(s).
        packet_id: Unique per construction, in construction order.
    """

    __slots__ = (
        "kind", "source", "destination", "address", "words",
        "issue_cycle", "request_tag", "payload", "packet_id",
    )

    def __init__(
        self,
        kind: PacketKind,
        source: int,
        destination: int,
        address: int,
        words: int = 1,
        issue_cycle: int = 0,
        request_tag: Optional[int] = None,
        payload: object = None,
    ) -> None:
        self.kind = kind
        self.source = source
        self.destination = destination
        self.address = address
        self.words = words
        self.issue_cycle = issue_cycle
        self.request_tag = request_tag
        self.payload = payload
        # Drawn before the checks, so a rejected construction still
        # consumes an id and the id sequence never depends on validation.
        self.packet_id = next(_packet_ids)
        if not 1 <= words <= MAX_PACKET_WORDS:
            raise ValueError(
                f"packets carry 1..{MAX_PACKET_WORDS} words, got {words}"
            )
        if source < 0 or destination < 0:
            raise ValueError("ports are non-negative indices")

    def __repr__(self) -> str:
        return (
            f"Packet(kind={self.kind!r}, source={self.source!r}, "
            f"destination={self.destination!r}, address={self.address!r}, "
            f"words={self.words!r}, issue_cycle={self.issue_cycle!r}, "
            f"request_tag={self.request_tag!r}, payload={self.payload!r}, "
            f"packet_id={self.packet_id!r})"
        )

    def reply(
        self, kind: PacketKind, words: int, issue_cycle: int, payload: object = None
    ) -> "Packet":
        """Build the reverse-network packet answering this request."""
        return Packet(
            kind=kind,
            source=self.destination,
            destination=self.source,
            address=self.address,
            words=words,
            issue_cycle=issue_cycle,
            request_tag=self.request_tag,
            payload=payload if payload is not None else self.payload,
        )
