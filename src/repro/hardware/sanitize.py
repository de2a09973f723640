"""Opt-in runtime invariant checking for the simulated Cedar hardware.

The simulator's shortcuts (calendar dispatch, the crossbar's head-route
masks, idle fast-forward) must not change a simulated result.  This
module makes the underlying *hardware invariants* machine-checked on any
workload: with the sanitizer armed, the hot components call into a
:class:`Sanitizer` at every state transition and a violation raises a
structured :class:`~repro.errors.SanitizerError` carrying the component,
the cycle and the trace-bus span context.

Checked invariant classes (see DESIGN.md for the paper justification):

* ``network.conservation`` -- every packet injected into a shuffle-exchange
  network is delivered exactly once or still physically queued; none are
  duplicated or dropped (Section 2, packet-switched flow control).
* ``network.routing`` -- a packet leaves the network on the line its
  destination tag names (the [Lawr75] destination-tag scheme).
* ``queue.capacity`` -- a :class:`BoundedWordQueue` never holds more words
  than its capacity, and its word count equals the sum of its packets.
* ``flow_control.credit`` -- per queue, words pushed minus words popped
  equals words buffered (credits are conserved; Section 2, "flow control
  between stages prevents queue overflow").
* ``queue.head`` -- the crossbar's derived masks agree with its raw state:
  per-input head routes and per-output input masks with the actual queue
  heads, the ``_headed``/``_idle`` output masks with those heads, the
  sinks and the packets in flight (the wake-mask bookkeeping is
  consistent).
* ``crossbar.arbiter`` -- every grant matches a shadow reference arbiter
  (unmasked round-robin first-fit), masked wake skips are provably no-ops,
  the round-robin pointer always advances past the last grant, and port
  conflicts are only counted against a genuinely full sink.
* ``engine.monotonic`` -- the dispatch clock never runs backwards.
* ``engine.schedule`` -- the validation-free scheduling entry points
  (``schedule_after``, ``schedule_pair``, recurring re-arm) still receive
  integral non-negative delays from inside a dispatching callback (the
  idle fast-forward off-queue contract).  One check counts per queued
  event whatever the entry point (``schedule`` included), so moving a
  caller between entry points never moves the count.
* ``memory.balance`` -- per module, requests pulled from the forward
  network equal replies injected plus writes absorbed plus at most one
  in-service and one pending-reply request, and every request pulled is
  addressed to the module that owns its word address.
* ``fullempty.prefetch`` -- the prefetch buffer's full/empty protocol:
  no word arrives twice (write-while-full) and no word is consumed before
  it arrived (read-while-empty).
* ``sync.shadow`` -- every Test-And-Operate outcome matches an independent
  shadow model of the synchronization words (indivisibility; [ZhYe87]).
* ``cache.balance`` -- the cache directory never exceeds its line count
  and bandwidth-server bookings never move backwards.
* ``ccb.iterations`` -- self-scheduled loop iterations are claimed exactly
  once each, and the join fires only when the whole trip count ran.

Enabling: ``CEDAR_SANITIZE=1`` in the environment arms a process-global
sanitizer, and :func:`sanitizing` installs a fresh one for a block (what
``cedar-repro run --sanitize`` does per experiment).  Components
snapshot :func:`current` at construction -- with the sanitizer off every
hook site is a single ``is not None`` test on a prebound attribute, so
the unsanitized hot paths stay pay-for-use.

The sanitizer only observes: every check is a pure read of component
state, so a sanitized run produces byte-identical results to an
unsanitized one (the determinism fuzz tests assert this while the
sanitizer is armed).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.errors import SanitizerError
from repro.trace import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.hardware.engine import Engine
    from repro.hardware.network import OmegaNetwork
    from repro.hardware.packet import Packet
    from repro.hardware.queueing import BoundedWordQueue


def _from_env() -> bool:
    # The sanctioned snapshot-once pattern: read at import into a module
    # switch; components then snapshot sanitize.current() at construction.
    return os.environ.get(  # cedar: noqa[det.env-read]
        "CEDAR_SANITIZE", "0"
    ).strip().lower() in (
        "1", "on", "true", "yes",
    )


_enabled = _from_env()
_ACTIVE: List["Sanitizer"] = []
_GLOBAL: Optional["Sanitizer"] = None


def enabled() -> bool:
    """Whether ``CEDAR_SANITIZE`` armed the process-global sanitizer."""
    return _enabled


def current() -> Optional["Sanitizer"]:
    """The sanitizer newly built components should report to, or None.

    The innermost :func:`sanitizing` block wins; otherwise the
    ``CEDAR_SANITIZE`` process-global sanitizer when the env flag is set.
    """
    if _ACTIVE:
        return _ACTIVE[-1]
    if _enabled:
        global _GLOBAL
        if _GLOBAL is None:
            _GLOBAL = Sanitizer()
        return _GLOBAL
    return None


@contextmanager
def sanitizing(sanitizer: Optional["Sanitizer"] = None) -> Iterator["Sanitizer"]:
    """Install ``sanitizer`` (or a fresh one) as the ambient sanitizer.

    Every hardware component constructed inside the block wires its
    assertion hooks to it.  :meth:`Sanitizer.finalize` is *not* called on
    exit -- callers run it explicitly after a successful run so that a
    failing simulation does not cascade into end-of-run balance errors.
    """
    sanitizer = sanitizer if sanitizer is not None else Sanitizer()
    _ACTIVE.append(sanitizer)
    try:
        yield sanitizer
    finally:
        _ACTIVE.pop()


# ---------------------------------------------------------------------------
# Shadow reference model of the synchronization processor.  Intentionally an
# independent implementation (keyed by the enum *values*, with its own
# masking arithmetic) so a bug in sync_processor.py cannot hide in its own
# shadow.
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF

_SHADOW_TESTS = {
    "always": lambda value, key: True,
    "==": lambda value, key: value == key,
    "!=": lambda value, key: value != key,
    "<": lambda value, key: value < key,
    "<=": lambda value, key: value <= key,
    ">": lambda value, key: value > key,
    ">=": lambda value, key: value >= key,
}

_SHADOW_OPS = {
    "read": lambda old, operand: old,
    "write": lambda old, operand: operand,
    "add": lambda old, operand: (old + operand) & _MASK32,
    "subtract": lambda old, operand: (old - operand) & _MASK32,
    "and": lambda old, operand: old & operand,
    "or": lambda old, operand: old | operand,
    "xor": lambda old, operand: old ^ operand,
}


class Sanitizer:
    """Runtime invariant checker the hardware components report into.

    One sanitizer observes one logical run (possibly several machines, as
    in the multi-kernel Table 2 driver).  Checks raise on violation;
    :meth:`summary` reports how many checks of each invariant class ran,
    which ``cedar-repro run --sanitize`` emits next to the results.
    """

    def __init__(self) -> None:
        #: Checks performed per invariant class (the summary's backbone).
        self.checks: Dict[str, int] = {}
        #: Violations raised (a raise aborts the run, so this is 0 or 1
        #: unless a caller swallows the error and keeps simulating).
        self.violations = 0
        self._clock = None  # Callable[[], int] from the last machine engine
        self._networks: List["OmegaNetwork"] = []
        self._net_inflight: Dict[int, Dict[int, "Packet"]] = {}
        self._delivery_ports: Dict[int, Tuple["OmegaNetwork", int]] = {}
        self._queue_credit: Dict[int, List[int]] = {}  # [pushed, popped]
        #: Last grant per (switch id, output): the round-robin ledger.
        self._arbiter_prev_grant: Dict[Tuple[int, int], int] = {}
        self._memory_modules: List[object] = []
        self._memory_ledger: Dict[int, List[int]] = {}  # [req, reply, write]
        self._sync_shadow: Dict[int, Dict[int, int]] = {}
        self._cdoalls: Dict[int, Dict[str, object]] = {}

    # -- plumbing ----------------------------------------------------------

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _cycle(self) -> Optional[int]:
        return self._clock() if self._clock is not None else None

    def _violate(self, invariant: str, component: str, message: str, **details) -> None:
        self.violations += 1
        tracer = current_tracer()
        span_context = tracer.open_span_names() if tracer is not None else []
        raise SanitizerError(
            invariant,
            component,
            message,
            cycle=self._cycle(),
            details=details,
            span_context=span_context,
        )

    # -- registration ------------------------------------------------------

    def register_engine(self, engine: "Engine") -> None:
        """Adopt ``engine``'s clock for violation timestamps."""
        self._clock = lambda: engine._now

    def register_network(self, network: "OmegaNetwork") -> None:
        """Track packet conservation for ``network``."""
        self._networks.append(network)
        self._net_inflight[id(network)] = {}
        for line, queue in enumerate(network._delivery_queues):
            self._delivery_ports[id(queue)] = (network, line)

    def register_memory_module(self, module) -> None:
        self._memory_modules.append(module)
        self._memory_ledger[id(module)] = [0, 0, 0]

    # -- queues (capacity + flow-control credits) --------------------------

    def queue_pushed(self, queue: "BoundedWordQueue", packet: "Packet") -> None:
        credit = self._queue_credit.setdefault(id(queue), [0, 0])
        credit[0] += packet.words
        self._check_queue(queue, credit)

    def queue_popped(self, queue: "BoundedWordQueue", packet: "Packet") -> None:
        credit = self._queue_credit.setdefault(id(queue), [0, 0])
        credit[1] += packet.words
        self._check_queue(queue, credit)
        delivery = self._delivery_ports.get(id(queue))
        if delivery is not None:
            self._network_delivered(delivery[0], delivery[1], packet)

    def _check_queue(self, queue: "BoundedWordQueue", credit: List[int]) -> None:
        self._count("queue.capacity")
        name = queue.name or "<anonymous queue>"
        used = queue._used_words
        if not 0 <= used <= queue.capacity_words:
            self._violate(
                "queue.capacity", name,
                f"{used} words buffered in a {queue.capacity_words}-word queue",
                used_words=used, capacity_words=queue.capacity_words,
            )
        actual = sum(p.words for p in queue._packets)
        if actual != used:
            self._violate(
                "queue.capacity", name,
                f"word accounting drifted: counter says {used}, "
                f"packets hold {actual}",
                used_words=used, packet_words=actual,
            )
        self._count("flow_control.credit")
        if credit[0] - credit[1] != used:
            self._violate(
                "flow_control.credit", name,
                f"credits not conserved: {credit[0]} pushed - {credit[1]} "
                f"popped != {used} buffered",
                pushed_words=credit[0], popped_words=credit[1], used_words=used,
            )

    # -- networks (packet conservation + routing) --------------------------

    def network_injected(self, network: "OmegaNetwork", packet: "Packet") -> None:
        inflight = self._net_inflight.get(id(network))
        if inflight is None:  # network built before this sanitizer; adopt it
            self.register_network(network)
            inflight = self._net_inflight[id(network)]
        self._count("network.conservation")
        if packet.packet_id in inflight:
            self._violate(
                "network.conservation", network.name,
                f"packet {packet.packet_id} injected twice",
                packet_id=packet.packet_id, source=packet.source,
                destination=packet.destination,
            )
        inflight[packet.packet_id] = packet

    def _network_delivered(
        self, network: "OmegaNetwork", line: int, packet: "Packet"
    ) -> None:
        inflight = self._net_inflight[id(network)]
        self._count("network.conservation")
        if packet.packet_id not in inflight:
            self._violate(
                "network.conservation", network.name,
                f"packet {packet.packet_id} delivered but never injected "
                f"(duplicated in flight, or pushed past try_inject)",
                packet_id=packet.packet_id, line=line,
            )
        del inflight[packet.packet_id]
        self._count("network.routing")
        if packet.destination != line:
            self._violate(
                "network.routing", network.name,
                f"packet for port {packet.destination} emerged on line {line}",
                packet_id=packet.packet_id, destination=packet.destination,
                line=line,
            )

    # -- crossbars (masks + shadow arbiter) --------------------------------

    def check_crossbar_masks(self, switch) -> None:
        """The head-route and output masks must mirror the raw switch state.

        ``_head_route`` and ``_inputs_for`` are re-derived from the actual
        queue heads, ``_headed`` from those, and ``_idle`` from the sinks
        and the packets on the wire.
        """
        self._count("queue.head")
        name = switch.name or "crossbar"
        table = switch.route_table
        inputs_for = [0] * switch.radix
        for index, queue in enumerate(switch.input_queues):
            head = queue.head()
            expected = table[head.destination] if head is not None else None
            if switch._head_route[index] != expected:
                self._violate(
                    "queue.head", name,
                    f"head-route mask of input {index} says "
                    f"{switch._head_route[index]!r}, head routes to {expected!r}",
                    input=index, mask=switch._head_route[index], actual=expected,
                )
            if expected is not None:
                inputs_for[expected] |= 1 << index
        if inputs_for != switch._inputs_for:
            self._violate(
                "queue.head", name,
                f"per-output input masks {switch._inputs_for} != actual "
                f"{inputs_for}",
                mask=list(switch._inputs_for), actual=inputs_for,
            )
        headed = idle = 0
        for output in range(switch.radix):
            if inputs_for[output]:
                headed |= 1 << output
            if switch.sink[output] is not None and switch.in_flight[output] is None:
                idle |= 1 << output
        for mask, actual in (("_headed", headed), ("_idle", idle)):
            if getattr(switch, mask) != actual:
                self._violate(
                    "queue.head", name,
                    f"output mask {mask} is {getattr(switch, mask):#b}, "
                    f"actual {actual:#b}",
                    mask=mask, value=getattr(switch, mask), actual=actual,
                )

    def _reference_scan(self, switch, output: int) -> Tuple[str, Optional[int]]:
        """Unmasked round-robin first-fit: ('grant'|'conflict'|'none', input)."""
        sink = switch.sink[output]
        table = switch.route_table
        start = switch.next_input[output]
        for offset in range(switch.radix):
            index = (start + offset) % switch.radix
            head = switch.input_queues[index].head()
            if head is None or table[head.destination] != output:
                continue
            if sink.can_accept(head):
                return "grant", index
            return "conflict", index
        return "none", None

    def check_masked_skip(self, switch, output: int) -> None:
        """A wake skipped by the head mask must be a provable no-op."""
        self._count("crossbar.arbiter")
        outcome, index = self._reference_scan(switch, output)
        if outcome != "none":
            self._violate(
                "crossbar.arbiter", switch.name or "crossbar",
                f"masked wake of output {output} skipped a "
                f"reference {outcome} at input {index}",
                output=output, reference=outcome, input=index,
            )

    def check_arbiter_grant(
        self, switch, output: int, start: int, chosen: int
    ) -> None:
        """A grant must match the shadow reference arbiter and be fair."""
        self._count("crossbar.arbiter")
        name = switch.name or "crossbar"
        outcome, expected = self._reference_scan(switch, output)
        if outcome != "grant" or expected != chosen:
            self._violate(
                "crossbar.arbiter", name,
                f"output {output} granted input {chosen}, "
                f"shadow arbiter says {outcome} "
                f"{'' if expected is None else f'at input {expected}'}",
                output=output, chosen=chosen,
                reference=outcome, reference_input=expected,
            )
        key = (id(switch), output)
        previous = self._arbiter_prev_grant.get(key)
        if previous is not None and start != (previous + 1) % switch.radix:
            self._violate(
                "crossbar.arbiter", name,
                f"round-robin pointer at {start} did not advance past the "
                f"previous grant (input {previous})",
                output=output, start=start, previous=previous,
            )
        self._arbiter_prev_grant[key] = chosen

    def check_port_conflict(self, switch, output: int, head: "Packet") -> None:
        """A counted port conflict requires a genuinely full sink."""
        self._count("crossbar.arbiter")
        sink = switch.sink[output]
        if head.words <= sink.capacity_words - sink._used_words:
            self._violate(
                "crossbar.arbiter", switch.name or "crossbar",
                f"port conflict counted on output {output} but "
                f"the sink has {sink.free_words} free words for a "
                f"{head.words}-word packet",
                output=output, head_words=head.words,
                free_words=sink.free_words,
            )

    # -- engine (clock + scheduling contract) ------------------------------

    def check_clock_advance(self, engine: "Engine", time: int, now: int) -> None:
        self._count("engine.monotonic")
        if time < now:
            self._violate(
                "engine.monotonic", "engine",
                f"event queue yielded cycle {time} after the clock reached "
                f"{now}; an event was planted behind the clock, bypassing "
                f"the scheduling API",
                event_cycle=time, clock=now,
            )

    def check_schedule_call(self, engine: "Engine", delay, site: str) -> None:
        """Validation for the validation-free scheduling entry points."""
        self._count("engine.schedule")
        if type(delay) is not int or delay < 0:
            self._violate(
                "engine.schedule", site,
                f"unvalidated delay {delay!r} reached the event queue; "
                f"delays must be pre-validated non-negative ints",
                delay=repr(delay),
            )
        if engine._running and not engine._in_dispatch:
            self._violate(
                "engine.schedule", site,
                "scheduling outside an event callback while the engine is "
                "running (breaks the idle fast-forward off-queue contract)",
            )

    # -- memory modules (request/reply balance) ----------------------------

    def memory_request(self, module, packet: "Packet") -> None:
        ledger = self._memory_ledger.get(id(module))
        if ledger is None:
            self.register_memory_module(module)
            ledger = self._memory_ledger[id(module)]
        ledger[0] += 1
        self._count("memory.balance")
        if packet.destination != module.index:
            self._violate(
                "memory.balance", f"memory.m{module.index:02d}",
                f"module {module.index} pulled a request addressed to "
                f"module {packet.destination}",
                destination=packet.destination, module=module.index,
            )
        from repro.hardware.memory import module_for_address

        config = module.config
        owner = module_for_address(
            packet.address, config.num_modules, config.interleave_words
        )
        if owner != module.index:
            self._violate(
                "memory.balance", f"memory.m{module.index:02d}",
                f"module {module.index} pulled a request for address "
                f"{packet.address}, which module {owner} owns",
                address=packet.address, owner=owner, module=module.index,
            )

    def memory_reply(self, module, packet: "Packet") -> None:
        ledger = self._memory_ledger.setdefault(id(module), [0, 0, 0])
        ledger[1] += 1
        self._check_memory_ledger(module, ledger)

    def memory_write_absorbed(self, module) -> None:
        ledger = self._memory_ledger.setdefault(id(module), [0, 0, 0])
        ledger[2] += 1
        self._check_memory_ledger(module, ledger)

    def _check_memory_ledger(self, module, ledger: List[int]) -> None:
        self._count("memory.balance")
        requests, replies, writes = ledger
        if replies + writes > requests:
            self._violate(
                "memory.balance", f"memory.m{module.index:02d}",
                f"{replies} replies + {writes} absorbed writes exceed "
                f"{requests} requests pulled from the network",
                requests=requests, replies=replies, writes=writes,
            )

    # -- prefetch buffer full/empty bits -----------------------------------

    def check_fullempty_write(self, component: str, handle, index: int) -> None:
        self._count("fullempty.prefetch")
        if handle.arrival_cycles[index] is not None:
            self._violate(
                "fullempty.prefetch", component,
                f"write-while-full: buffer word {index} arrived twice",
                index=index, first_arrival=handle.arrival_cycles[index],
            )
        if handle.invalidated:
            self._violate(
                "fullempty.prefetch", component,
                f"arrival recorded into an invalidated prefetch buffer "
                f"(word {index})",
                index=index,
            )

    def check_fullempty_read(self, component: str, handle, index: int) -> None:
        self._count("fullempty.prefetch")
        if handle.arrival_cycles[index] is None:
            self._violate(
                "fullempty.prefetch", component,
                f"read-while-empty: word {index} consumed before it arrived",
                index=index,
            )

    # -- synchronization processors (shadow model) -------------------------

    def check_sync(
        self,
        processor,
        address: int,
        kind: str,
        test: Optional[str],
        key: int,
        op: Optional[str],
        operand: int,
        outcome,
    ) -> None:
        """Replay the instruction on an independent shadow and compare."""
        self._count("sync.shadow")
        shadow = self._sync_shadow.setdefault(id(processor), {})
        old = shadow.get(address, 0)
        if kind == "test_and_set":
            passed, new = old == 0, 1
            shadow[address] = 1
        else:
            passed = _SHADOW_TESTS[test](old, key & _MASK32)
            if passed:
                new = _SHADOW_OPS[op](old, operand & _MASK32) & _MASK32
                if op != "read":
                    shadow[address] = new
            else:
                new = old
        if (outcome.test_passed, outcome.old_value, outcome.new_value) != (
            passed, old, new,
        ):
            self._violate(
                "sync.shadow", "sync",
                f"{kind} at address {address} returned "
                f"(passed={outcome.test_passed}, old={outcome.old_value}, "
                f"new={outcome.new_value}); shadow model says "
                f"(passed={passed}, old={old}, new={new}) -- the operation "
                f"was not indivisible",
                address=address, kind=kind,
            )
        stored = processor.read(address)
        if stored != shadow.get(address, 0):
            self._violate(
                "sync.shadow", "sync",
                f"word {address} holds {stored}, shadow holds "
                f"{shadow.get(address, 0)}",
                address=address, stored=stored,
            )

    # -- cache / cluster memory --------------------------------------------

    def check_cache_directory(self, cache) -> None:
        self._count("cache.balance")
        if len(cache._lines) > cache.num_lines:
            self._violate(
                "cache.balance", cache.name,
                f"directory holds {len(cache._lines)} lines, capacity is "
                f"{cache.num_lines}",
                resident=len(cache._lines), capacity=cache.num_lines,
            )

    def check_bandwidth_reserve(
        self, server, previous_free: float, start: float, finish: float, words: int
    ) -> None:
        self._count("cache.balance")
        if words < 0 or finish < start or start + 1e-9 < previous_free:
            self._violate(
                "cache.balance", server.name or "bandwidth",
                f"reservation of {words} words booked [{start}, {finish}) "
                f"against a server already booked to {previous_free}",
                words=words, start=start, finish=finish,
                previous_free=previous_free,
            )

    # -- concurrency control bus -------------------------------------------

    def register_cdoall(self, counter, num_iterations: int, num_ces: int) -> None:
        self._cdoalls[id(counter)] = {
            "n": num_iterations,
            "ces": num_ces,
            "claimed": set(),
        }

    def ccb_claimed(self, counter, iteration: int) -> None:
        state = self._cdoalls.get(id(counter))
        if state is None:
            return
        self._count("ccb.iterations")
        claimed = state["claimed"]
        if iteration in claimed:
            self._violate(
                "ccb.iterations", "ccb",
                f"iteration {iteration} claimed twice",
                iteration=iteration,
            )
        if not 0 <= iteration < state["n"]:
            self._violate(
                "ccb.iterations", "ccb",
                f"claimed iteration {iteration} outside the "
                f"{state['n']}-iteration loop",
                iteration=iteration, trip_count=state["n"],
            )
        claimed.add(iteration)

    def ccb_join(self, counter, static: bool) -> None:
        state = self._cdoalls.get(id(counter))
        if state is None:
            return
        self._count("ccb.iterations")
        if not static and len(state["claimed"]) != state["n"]:
            self._violate(
                "ccb.iterations", "ccb",
                f"join passed with {len(state['claimed'])} of "
                f"{state['n']} iterations claimed",
                claimed=len(state["claimed"]), trip_count=state["n"],
            )
        if counter.remaining != 0 and not static:
            self._violate(
                "ccb.iterations", "ccb",
                f"join passed with {counter.remaining} iterations undispensed",
                remaining=counter.remaining,
            )

    # -- end-of-run balance -------------------------------------------------

    def finalize(self) -> None:
        """End-of-run conservation: injected == delivered + physically queued.

        Called by the ``--sanitize`` glue after a run completes; safe to
        call on a run stopped early (packets still in queues, arbiters or
        memory modules are accounted, not flagged).
        """
        for network in self._networks:
            self._count("network.conservation")
            queued: Dict[int, str] = {}
            for row in network.stages:
                for switch in row:
                    for queue in switch.input_queues:
                        for packet in queue._packets:
                            queued[packet.packet_id] = queue.name
                    for output, packet in enumerate(switch.in_flight):
                        if packet is not None:
                            queued[packet.packet_id] = (
                                f"{switch.name}.out[{output}]"
                            )
            for queue in network._delivery_queues:
                for packet in queue._packets:
                    queued[packet.packet_id] = queue.name
            inflight = self._net_inflight[id(network)]
            lost = sorted(set(inflight) - set(queued))
            conjured = sorted(set(queued) - set(inflight))
            if lost or conjured:
                self._violate(
                    "network.conservation", network.name,
                    f"end-of-run imbalance: {len(lost)} packet(s) vanished "
                    f"in flight, {len(conjured)} queued without injection",
                    lost=lost[:8], conjured=conjured[:8],
                    in_flight=len(inflight), queued=len(queued),
                )
        for module in self._memory_modules:
            ledger = self._memory_ledger[id(module)]
            self._count("memory.balance")
            outstanding = (1 if module._in_service is not None else 0) + (
                1 if module._pending_reply is not None else 0
            )
            if ledger[0] - ledger[1] - ledger[2] != outstanding:
                self._violate(
                    "memory.balance", f"memory.m{module.index:02d}",
                    f"end-of-run imbalance: {ledger[0]} requests != "
                    f"{ledger[1]} replies + {ledger[2]} writes + "
                    f"{outstanding} outstanding",
                    requests=ledger[0], replies=ledger[1], writes=ledger[2],
                    outstanding=outstanding,
                )

    # -- reporting -----------------------------------------------------------

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> Dict[str, object]:
        """JSON-safe report: checks per invariant class plus violations."""
        return {
            "enabled": True,
            "checks": {name: self.checks[name] for name in sorted(self.checks)},
            "total_checks": self.total_checks,
            "violations": self.violations,
        }
