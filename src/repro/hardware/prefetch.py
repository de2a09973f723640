"""The per-CE data prefetch unit (Section 2, "Data Prefetch").

A PFU is *armed* with the length, stride and mask of a vector to fetch and
*fired* with the physical address of the first word.  It then issues up to
512 requests without pausing (one per cycle), except that a prefetch
crossing a page boundary suspends until the processor supplies the first
address in the new page.  Data returns to a 512-word prefetch buffer --
possibly out of order, due to memory and network conflicts -- and a
full/empty bit per word lets the CE consume the data in request order
without waiting for the whole prefetch to complete.

Both ends of a word are straight-line code over the CE's network port.
One :meth:`PrefetchUnit._issue_next` frame computes the word's address,
makes the page test, allocates the reply tag, builds the request and
injects it.  The tag maps to ``(handle, index)``, which the port hands to
:meth:`PrefetchUnit._on_reply`; that frame records the arrival, wakes the
word's waiters and tests completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.config import PrefetchConfig, WORD_BYTES
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.packet import Packet, PacketKind

if TYPE_CHECKING:
    from repro.hardware.ce import NetworkPort

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
    #: Cycle the first word's request entered the network (None until then).
    first_issue_cycle: Optional[int] = None
    arrival_cycles: List[Optional[int]] = field(default_factory=list)
    _arrival_order: List[int] = field(default_factory=list)
    _waiters: Dict[int, List[Callable[[], None]]] = field(default_factory=dict)
    invalidated: bool = False

    def __post_init__(self) -> None:
        self.arrival_cycles = [None] * self.length

    @property
    def words_arrived(self) -> int:
        return len(self._arrival_order)

    @property
    def complete(self) -> bool:
        return self.words_arrived == self.length

    def wait_for_word(self, index: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` when word ``index`` becomes available."""
        if self.arrival_cycles[index] is not None:
            callback()
            return
        self._waiters.setdefault(index, []).append(callback)

    # -- the paper's Table 2 metrics --------------------------------------

    def first_word_latency(self) -> int:
        """Cycles from first-address issue to first datum return."""
        if self.first_issue_cycle is None or not self._arrival_order:
            raise SimulationError("prefetch has no completed first word")
        return self._arrival_order[0] - self.first_issue_cycle

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
        port: "NetworkPort",
        tracer=None,
    ) -> None:
        """
        Args:
            engine: Simulation engine.
            config: PFU parameters.
            port: The CE's network port: its forward network takes the
                requests, its tag table routes the replies back here, and
                its ``memory_port_of`` maps a word address to its module.
        """
        self.engine = engine
        self.config = config
        self._port = port
        self.port = port.port
        port.prefetch_reply = self._on_reply
        self.trace = tracer.if_enabled() if tracer is not None else None
        self._trace_component = f"prefetch.ce{self.port:02d}"
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
            fire_cycle=self.engine._now,
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

    def _issue_next(self, page_resumed: bool = False) -> None:
        """Issue the next word; ``page_resumed`` skips the page test (a page
        resume, or a retry of a word that passed it)."""
        handle = self._active
        index = self._next_index
        if handle is None or index >= handle.length:
            self._issuing = False
            return
        address = handle.start_address + index * handle.stride
        page_words = self._page_words
        if index and not page_resumed and (
            (address - handle.stride) // page_words != address // page_words
        ):
            self.page_suspensions += 1
            if self._trace_counters is not None:
                self._trace_counters.add("page_suspensions")
            self.engine.schedule(
                PAGE_RESUME_CYCLES, partial(self._issue_next, True)
            )
            return
        port = self._port
        # NetworkPort.new_tag, inline; the tag is bound to its word only
        # once the network accepts the request.
        tag = port._next_tag
        port._next_tag = tag + 1
        now = self.engine._now
        source = self.port
        packet = Packet(
            PacketKind.READ_REQUEST, source, port.memory_port_of(address),
            address, 1, now, tag,
        )
        if port.forward.try_inject(source, packet):
            port._callbacks[tag] = (handle, index)
            if not index:
                handle.first_issue_cycle = now
            self._next_index = index + 1
            counters = self._trace_counters
            if counters is not None:
                slot = self._slot_issued
                if slot < 0:
                    slot = self._slot_issued = counters.slot("requests_issued")
                counters.values[slot] += 1
            self._issue_tick.schedule()
        else:
            port.forward.on_entry_space(
                source, partial(self._retry_issue, now)
            )

    def _retry_issue(self, stall_start: int) -> None:
        stalled = self.engine._now - stall_start
        self.network_stall_cycles += stalled
        if self._trace_counters is not None:
            self._trace_counters.add("network_stall_cycles", stalled)
        self._issue_next(True)

    # -- buffer fill -------------------------------------------------------

    def _on_reply(self, handle: PrefetchHandle, index: int) -> None:
        """A read reply reached this CE's prefetch buffer."""
        if handle.invalidated:
            return  # the buffer was invalidated by a newer fire()
        if self._sanitizer is not None:
            # Write-side full/empty protocol: the slot must be empty.
            self._sanitizer.check_fullempty_write(
                self._trace_component, handle, index
            )
        arrivals = handle.arrival_cycles
        if arrivals[index] is not None:
            raise SimulationError(f"duplicate arrival for prefetch word {index}")
        now = self.engine._now
        arrivals[index] = now
        order = handle._arrival_order
        order.append(now)
        callbacks = handle._waiters.pop(index, None)
        if callbacks is not None:
            for callback in callbacks:
                callback()
        arrived = len(order)
        if self.trace is not None:
            counters = self._trace_counters
            slot = self._slot_filled
            if slot < 0:
                slot = self._slot_filled = counters.slot("buffer_words_filled")
            counters.values[slot] += 1
            if arrived % 32 == 1:
                self.trace.sample(
                    self._trace_component, "buffer_fill_words", arrived, now,
                )
        if arrived == handle.length:
            self.completed.append(handle)
            if self.trace is not None:
                self.trace.complete(
                    self._trace_component,
                    f"prefetch[{handle.length}w stride {handle.stride}]",
                    handle.fire_cycle, now,
                    first_word_latency=handle.first_word_latency(),
                )
