"""The per-CE data prefetch unit (Section 2, "Data Prefetch").

A PFU is *armed* with the length, stride and mask of a vector to fetch and
*fired* with the physical address of the first word.  It then issues up to
512 requests without pausing (one per cycle), except that a prefetch
crossing a page boundary suspends until the processor supplies the first
address in the new page.  Data returns to a 512-word prefetch buffer --
possibly out of order, due to memory and network conflicts -- and a
full/empty bit per word lets the CE consume the data in request order
without waiting for the whole prefetch to complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import PrefetchConfig, WORD_BYTES
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet, PacketKind

#: Cycles for the CE to supply the first address of a new page when a
#: prefetch suspends at a page crossing (the PFU only has physical
#: addresses).  The CE must take a micro-trap and translate; this is the
#: modelled cost of that intervention.
PAGE_RESUME_CYCLES = 12


@dataclass
class PrefetchHandle:
    """One armed-and-fired prefetch: addresses, arrivals, and statistics."""

    length: int
    stride: int
    start_address: int
    fire_cycle: int
    issue_cycles: List[Optional[int]] = field(default_factory=list)
    arrival_cycles: List[Optional[int]] = field(default_factory=list)
    _arrival_order: List[int] = field(default_factory=list)
    _waiters: Dict[int, List[Callable[[], None]]] = field(default_factory=dict)
    invalidated: bool = False

    def __post_init__(self) -> None:
        self.issue_cycles = [None] * self.length
        self.arrival_cycles = [None] * self.length

    def address_of(self, index: int) -> int:
        return self.start_address + index * self.stride

    @property
    def words_arrived(self) -> int:
        return len(self._arrival_order)

    @property
    def complete(self) -> bool:
        return self.words_arrived == self.length

    def is_available(self, index: int) -> bool:
        """Full/empty bit of buffer word ``index``."""
        return self.arrival_cycles[index] is not None

    def wait_for_word(self, index: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` when word ``index`` becomes available."""
        if self.is_available(index):
            callback()
            return
        self._waiters.setdefault(index, []).append(callback)

    def record_arrival(self, index: int, cycle: int) -> None:
        if self.arrival_cycles[index] is not None:
            raise SimulationError(f"duplicate arrival for prefetch word {index}")
        self.arrival_cycles[index] = cycle
        self._arrival_order.append(cycle)
        callbacks = self._waiters.pop(index, None)
        if callbacks is not None:
            for callback in callbacks:
                callback()

    # -- the paper's Table 2 metrics --------------------------------------

    def first_word_latency(self) -> int:
        """Cycles from first-address issue to first datum return."""
        if self.issue_cycles[0] is None or not self._arrival_order:
            raise SimulationError("prefetch has no completed first word")
        return self._arrival_order[0] - self.issue_cycles[0]

    def interarrival_times(self) -> List[int]:
        """Gaps between consecutive word returns, in arrival order."""
        order = self._arrival_order
        return [order[i] - order[i - 1] for i in range(1, len(order))]


class PrefetchUnit:
    """One CE's PFU: an issue engine plus the 512-word prefetch buffer."""

    def __init__(
        self,
        engine: Engine,
        config: PrefetchConfig,
        send: Callable[[Packet], bool],
        on_send_space: Callable[[Callable[[], None]], None],
        new_tag: Callable[[Callable[[Packet], None]], int],
        release_tag: Callable[[int], None],
        port: int,
        memory_port_of: Callable[[int], int],
        tracer=None,
    ) -> None:
        """
        Args:
            engine: Simulation engine.
            config: PFU parameters.
            send: Injects a packet into the forward network; False when full.
            on_send_space: Registers a retry callback for a full entry queue.
            new_tag: Allocates a reply tag bound to a one-shot callback (the
                CE network port dispatches replies by tag).
            release_tag: Drops the callback of a tag whose request the
                network rejected (the retry allocates a fresh tag).
            port: This CE's network port (packet source id).
            memory_port_of: Maps a word address to its memory-module port.
        """
        self.engine = engine
        self.config = config
        self._send = send
        self._on_send_space = on_send_space
        self._new_tag = new_tag
        self._release_tag = release_tag
        self.port = port
        self._memory_port_of = memory_port_of
        self.trace = tracer.if_enabled() if tracer is not None else None
        self._trace_component = f"prefetch.ce{port:02d}"
        self._trace_counters = (
            self.trace.counters(self._trace_component)
            if self.trace is not None
            else None
        )
        #: Lazily bound slots for the per-word hot counters (-1 until the
        #: first bump); the rare counters stay on ``CounterSet.add``.
        self._slot_issued = -1
        self._slot_filled = -1
        # The issue engine ticks at a fixed cadence (one request per
        # issue_interval_cycles); a recurring event re-arms itself instead
        # of paying schedule() validation per word.
        self._issue_tick = engine.recurring(
            config.issue_interval_cycles, self._issue_next
        )
        self._sanitizer = sanitize.current()
        #: Words per page, for the page-crossing test on every issued word.
        self._page_words = config.page_bytes // WORD_BYTES
        self._armed: Optional[Dict[str, int]] = None
        self._active: Optional[PrefetchHandle] = None
        self._next_index = 0
        self._outstanding = 0
        self._issuing = False
        self.completed: List[PrefetchHandle] = []
        self.network_stall_cycles = 0
        self.page_suspensions = 0

    # -- architectural interface -----------------------------------------

    def arm(self, length: int, stride: int = 1) -> None:
        """Load length/stride/mask; the next fire starts this vector."""
        if length < 1:
            raise ValueError(f"prefetch length must be >= 1, got {length}")
        if length > self.config.buffer_words:
            raise ValueError(
                f"prefetch length {length} exceeds the "
                f"{self.config.buffer_words}-word buffer"
            )
        if stride == 0:
            raise ValueError("prefetch stride must be non-zero")
        self._armed = {"length": length, "stride": stride}

    def fire(self, start_address: int) -> PrefetchHandle:
        """Start fetching; invalidates the buffer of any previous prefetch."""
        if self._armed is None:
            raise SimulationError("fire() before arm()")
        if self._issuing:
            raise SimulationError(
                "fired a new prefetch while the previous one is still issuing"
            )
        if self._active is not None:
            # "The data returns to a 512-word prefetch buffer which is
            # invalidated when another prefetch is started."
            self._active.invalidated = True
        handle = PrefetchHandle(
            length=self._armed["length"],
            stride=self._armed["stride"],
            start_address=start_address,
            fire_cycle=self.engine.now,
        )
        self._armed = None
        self._active = handle
        self._next_index = 0
        if not self._issuing:
            self._issuing = True
            self.engine.schedule(1, self._issue_next)  # 1-cycle port interface
        return handle

    @property
    def active(self) -> Optional[PrefetchHandle]:
        return self._active

    # -- issue engine ------------------------------------------------------

    def _issue_next(self) -> None:
        handle = self._active
        if handle is None or self._next_index >= handle.length:
            self._issuing = False
            return
        index = self._next_index
        address = handle.address_of(index)
        if index > 0 and self._crosses_page(address - handle.stride, address):
            self.page_suspensions += 1
            if self._trace_counters is not None:
                self._trace_counters.add("page_suspensions")
            self.engine.schedule(
                PAGE_RESUME_CYCLES, lambda: self._issue_word(index, address)
            )
            return
        self._issue_word(index, address)

    def _issue_word(self, index: int, address: int) -> None:
        """Send word ``index`` of the active prefetch, at ``address``."""
        handle = self._active
        assert handle is not None
        tag = self._new_tag(lambda packet, i=index, h=handle: self._on_reply(h, i))
        packet = Packet(
            kind=PacketKind.READ_REQUEST,
            source=self.port,
            destination=self._memory_port_of(address),
            address=address,
            words=1,
            issue_cycle=self.engine.now,
            request_tag=tag,
        )
        if self._send(packet):
            handle.issue_cycles[index] = self.engine.now
            self._next_index = index + 1
            self._outstanding += 1
            counters = self._trace_counters
            if counters is not None:
                slot = self._slot_issued
                if slot < 0:
                    slot = self._slot_issued = counters.slot("requests_issued")
                counters.values[slot] += 1
            self._issue_tick.schedule()
        else:
            self._release_tag(tag)
            stall_start = self.engine.now
            self._on_send_space(
                lambda: self._retry_issue(index, address, stall_start)
            )

    def _retry_issue(self, index: int, address: int, stall_start: int) -> None:
        stalled = self.engine.now - stall_start
        self.network_stall_cycles += stalled
        if self._trace_counters is not None:
            self._trace_counters.add("network_stall_cycles", stalled)
        self._issue_word(index, address)

    def _crosses_page(self, prev_address: int, address: int) -> bool:
        page_words = self._page_words
        return (prev_address // page_words) != (address // page_words)

    # -- buffer fill -------------------------------------------------------

    def _on_reply(self, handle: PrefetchHandle, index: int) -> None:
        """A read reply reached this CE's prefetch buffer."""
        self._outstanding -= 1
        if handle.invalidated:
            return  # the buffer was invalidated by a newer fire()
        if self._sanitizer is not None:
            # Write-side full/empty protocol: the slot must be empty.
            self._sanitizer.check_fullempty_write(
                self._trace_component, handle, index
            )
        handle.record_arrival(index, self.engine.now)
        if self.trace is not None:
            counters = self._trace_counters
            slot = self._slot_filled
            if slot < 0:
                slot = self._slot_filled = counters.slot("buffer_words_filled")
            counters.values[slot] += 1
            if handle.words_arrived % 32 == 1:
                self.trace.sample(
                    self._trace_component, "buffer_fill_words",
                    handle.words_arrived, self.engine.now,
                )
        if handle.complete:
            self.completed.append(handle)
            if self.trace is not None:
                self.trace.complete(
                    self._trace_component,
                    f"prefetch[{handle.length}w stride {handle.stride}]",
                    handle.fire_cycle, self.engine.now,
                    first_word_latency=handle.first_word_latency(),
                )
