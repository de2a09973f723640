"""Deliberate invariant breakers ("fault drills") for the sanitizer.

A sanitizer that never fires is indistinguishable from one that checks
nothing, so each invariant class has a *drill*: a self-contained function
that builds real hardware components inside the ambient sanitizing
context, corrupts their state the way a hypothetical simulator bug would,
and performs the action whose check must then raise
:class:`~repro.errors.SanitizerError` with that invariant name.

``FAULT_DRILLS`` maps invariant class -> drill.  ``test_sanitize.py``
asserts every drill fires its own class, which is what makes a green
``--sanitize`` run meaningful.  Like ``reference_crossbar.py``, this is a
test oracle, not simulator code.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict

from repro.config import DEFAULT_CONFIG
from repro.hardware import sanitize
from repro.hardware.cache import ClusterCache
from repro.hardware.ccb import IterationCounter
from repro.hardware.crossbar import CrossbarSwitch
from repro.hardware.engine import Engine
from repro.hardware.memory import MemoryModule
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.prefetch import PrefetchHandle
from repro.hardware.queueing import BoundedWordQueue
from repro.hardware.sync_processor import SyncProcessor


def _packet(destination: int, words: int = 1, kind=PacketKind.READ_REQUEST) -> Packet:
    return Packet(kind=kind, source=0, destination=destination, address=0, words=words)


def _drill_queue_capacity() -> None:
    """Word counter drifts away from the packets actually buffered."""
    queue = BoundedWordQueue(8, name="drill.capacity")
    queue.push(_packet(0, words=2))
    queue._used_words -= 1  # a lost word: counter no longer matches packets
    queue.push(_packet(0, words=1))


def _drill_flow_control_credit() -> None:
    """A packet materializes in a queue without passing through push()."""
    queue = BoundedWordQueue(8, name="drill.credit")
    queue.push(_packet(0, words=1))
    smuggled = _packet(0, words=2)
    queue._packets.append(smuggled)  # bypasses the credit ledger entirely
    queue._used_words += smuggled.words
    queue.push(_packet(0, words=1))


def _drill_queue_head() -> None:
    """The crossbar's derived head-route mask lies about a queue head."""
    engine = Engine()
    switch = CrossbarSwitch(
        engine, radix=2, route_table=(0, 1), queue_words=8, name="drill.xbar",
    )
    switch.input_queues[0].push(_packet(destination=0))  # no sinks: no grant
    switch._head_route[0] = 1  # corrupt the mask behind the queue's back
    switch.wake_all()


def _drill_crossbar_arbiter() -> None:
    """A masked wake skips an output the reference arbiter would grant."""
    engine = Engine()
    switch = CrossbarSwitch(
        engine, radix=2, route_table=(0, 1), queue_words=8, name="drill.arb",
    )
    switch.input_queues[0].push(_packet(destination=0))
    for output in range(switch.radix):
        switch.connect_output(output, BoundedWordQueue(8, name="drill.arb.sink"))
    switch._inputs_for[0] = 0  # lie: "no input's head routes to output 0"
    switch.wake(0)


def _drill_network_conservation() -> None:
    """The same physical packet is injected twice."""
    engine = Engine()
    network = OmegaNetwork(
        engine, 8, DEFAULT_CONFIG.network, name="drill.net"
    )
    packet = _packet(destination=3)
    network.try_inject(0, packet)
    network.try_inject(1, packet)


def _drill_network_routing() -> None:
    """A packet emerges on a line other than its destination tag."""
    engine = Engine()
    network = OmegaNetwork(
        engine, 8, DEFAULT_CONFIG.network, name="drill.route"
    )
    packet = _packet(destination=3)
    network.try_inject(0, packet)
    network.delivery_queue(5).push(packet)  # teleported to the wrong exit line
    network.delivery_queue(5).pop()


def _drill_engine_monotonic() -> None:
    """An event is planted in a calendar bucket behind the clock."""
    engine = Engine()
    engine._buckets[-1] = [lambda: None]
    heapq.heappush(engine._times, -1)
    engine.run()


def _drill_engine_schedule() -> None:
    """An unvalidated negative delay reaches the validation-free entry point."""
    engine = Engine()
    engine.schedule_after(-3, lambda: None)


def _drill_memory_balance() -> None:
    """A module pulls a request addressed to a different module."""
    engine = Engine()
    reverse = OmegaNetwork(engine, 8, DEFAULT_CONFIG.network, name="drill.rev")
    forward_queue = BoundedWordQueue(8, name="drill.fwd")
    module = MemoryModule(
        engine=engine,
        index=2,
        config=DEFAULT_CONFIG.global_memory,
        sync_config=DEFAULT_CONFIG.sync,
        forward_queue=forward_queue,
        reverse=reverse,
    )
    assert module.index == 2
    forward_queue.push(_packet(destination=5))  # steered to the wrong module


def _drill_fullempty_prefetch() -> None:
    """A buffer word arrives twice (write-while-full)."""
    handle = PrefetchHandle(length=4, stride=1, start_address=0, fire_cycle=0)
    handle.arrival_cycles[0] = 5  # word 0 is already full
    sanitizer = sanitize.current()
    assert sanitizer is not None
    sanitizer.check_fullempty_write("drill.prefetch", handle, 0)


def _drill_sync_shadow() -> None:
    """A synchronization word is mutated behind the processor's back."""
    sync = SyncProcessor()
    sync.test_and_set(0)  # shadow model now in lockstep
    sync._words[0] = 7  # non-indivisible interference
    sync.test_and_set(0)


def _drill_cache_balance() -> None:
    """The cache directory holds more lines than physically exist."""
    engine = Engine()
    cache = ClusterCache(
        engine, DEFAULT_CONFIG.cache, DEFAULT_CONFIG.cluster_memory,
        name="drill.cache",
    )
    for line in range(cache.num_lines + 2):  # bypass _touch's LRU eviction
        cache._lines[line] = False
    cache.install_block(0, 1)


def _drill_ccb_iterations() -> None:
    """A self-scheduled loop iteration is dispensed twice."""
    counter = IterationCounter(4)
    sanitizer = sanitize.current()
    assert sanitizer is not None
    sanitizer.register_cdoall(counter, 4, 2)
    sanitizer.ccb_claimed(counter, 1)
    sanitizer.ccb_claimed(counter, 1)


#: Invariant class -> drill that must raise SanitizerError for it.
FAULT_DRILLS: Dict[str, Callable[[], None]] = {
    "queue.capacity": _drill_queue_capacity,
    "flow_control.credit": _drill_flow_control_credit,
    "queue.head": _drill_queue_head,
    "crossbar.arbiter": _drill_crossbar_arbiter,
    "network.conservation": _drill_network_conservation,
    "network.routing": _drill_network_routing,
    "engine.monotonic": _drill_engine_monotonic,
    "engine.schedule": _drill_engine_schedule,
    "memory.balance": _drill_memory_balance,
    "fullempty.prefetch": _drill_fullempty_prefetch,
    "sync.shadow": _drill_sync_shadow,
    "cache.balance": _drill_cache_balance,
    "ccb.iterations": _drill_ccb_iterations,
}

