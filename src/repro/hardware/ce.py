"""The computational element (CE) and its network port.

A CE in this simulator runs a *kernel coroutine*: a Python generator that
yields micro-operations (compute for N cycles, arm/fire a prefetch, consume
a prefetch stream through the vector unit, issue direct global loads or
stores, run a vector instruction against the cluster cache, execute a
synchronization instruction) and is resumed with each operation's result.
This is the instruction-level interface the Section 4.1 kernels are written
against; the paper's timing constraints -- two outstanding global requests
without prefetch, non-stalling writes, one input stream per vector
instruction -- are enforced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from repro.config import CedarConfig
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.prefetch import PrefetchHandle, PrefetchUnit
from repro.hardware.sync_processor import OperateOp, TestOp


# ---------------------------------------------------------------------------
# Micro-operations a kernel coroutine may yield
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Compute:
    """Keep the CE busy for ``cycles`` (scalar work, register-register ops)."""

    cycles: int
    flops: float = 0.0


@dataclass(frozen=True)
class ArmFirePrefetch:
    """Arm the PFU with (length, stride) and fire at ``start_address``.

    Resumes immediately with the :class:`PrefetchHandle`; the fetch proceeds
    autonomously and can be overlapped with computation (the paper's
    "completely autonomous" mode).
    """

    length: int
    stride: int
    start_address: int


@dataclass(frozen=True)
class ConsumePrefetch:
    """Vector instruction streaming the prefetch buffer in request order.

    The full/empty bits let the CE consume each word as it arrives, at most
    one per cycle; ``flops_per_element`` chained operations are credited per
    word (the rank-64 kernels chain two).
    """

    handle: PrefetchHandle
    flops_per_element: float = 2.0


@dataclass(frozen=True)
class GlobalLoads:
    """Direct (non-prefetched) global loads, the GM/no-pref access mode.

    The CE allows only ``max_outstanding`` concurrent misses (two, from the
    lockup-free cache design), which is exactly why this mode is latency
    bound.
    """

    start_address: int
    length: int
    stride: int = 1
    max_outstanding: int = 2
    flops_per_element: float = 2.0


@dataclass(frozen=True)
class GlobalStores:
    """Global stores issued one per cycle; writes never stall the CE beyond
    forward-network back-pressure."""

    start_address: int
    length: int
    stride: int = 1


@dataclass(frozen=True)
class VectorCacheOp:
    """Vector instruction whose memory operand streams the cluster cache."""

    length: int
    flops_per_element: float = 1.0
    resident: bool = True
    write: bool = False


@dataclass(frozen=True)
class SyncInstruction:
    """Memory-mapped Cedar synchronization instruction (Test-And-Operate)."""

    address: int
    test: TestOp = TestOp.ALWAYS
    key: int = 0
    op: OperateOp = OperateOp.READ
    operand: int = 0
    test_and_set: bool = False


@dataclass(frozen=True)
class PostEvent:
    """Post a software event to the performance-monitoring hardware."""

    signal: str
    value: int = 0


@dataclass(frozen=True)
class AwaitPrefetch:
    """Block until a previously fired prefetch has completely returned."""

    handle: PrefetchHandle


KernelCoroutine = Generator[object, object, None]
KernelFactory = Callable[["ComputationalElement"], KernelCoroutine]


# ---------------------------------------------------------------------------
# Network port: tag allocation and reply dispatch for one CE
# ---------------------------------------------------------------------------


class NetworkPort:
    """One CE's interface to the forward/reverse global networks.

    Demand requests and the PFU steer by ``memory_port_of``, the cluster's
    address-to-module map.  A tag maps to a one-shot callable, or to
    ``(handle, index)`` for a prefetch word (see ``prefetch_reply``).
    """

    def __init__(
        self,
        engine: Engine,
        port: int,
        forward: OmegaNetwork,
        reverse: OmegaNetwork,
        memory_port_of: Callable[[int], int],
    ) -> None:
        self.engine = engine
        self.port = port
        self.forward = forward
        self.reverse = reverse
        self.memory_port_of = memory_port_of
        #: Set by the CE's :class:`PrefetchUnit`; takes (handle, index).
        self.prefetch_reply: Optional[Callable[[PrefetchHandle, int], None]] = None
        self._next_tag = 0
        self._callbacks: Dict[int, object] = {}
        reverse.attach_sink(port, self._deliver)

    def new_tag(self, callback: Callable[[Packet], None]) -> int:
        tag = self._next_tag
        self._next_tag += 1
        self._callbacks[tag] = callback
        return tag

    def release_tag(self, tag: int) -> None:
        """Drop the callback of a tag whose request was never injected."""
        del self._callbacks[tag]

    def _deliver(self, packet: Packet) -> None:
        tag = packet.request_tag
        entry = self._callbacks.pop(tag, None)
        if entry is None:
            raise SimulationError(f"reply with unknown tag {tag} at port {self.port}")
        if entry.__class__ is tuple:
            self.prefetch_reply(*entry)
        else:
            entry(packet)


# ---------------------------------------------------------------------------
# The CE proper
# ---------------------------------------------------------------------------


class ComputationalElement:
    """One Alliant CE: scalar/vector engine plus PFU and network port."""

    def __init__(
        self,
        engine: Engine,
        config: CedarConfig,
        global_port: int,
        forward: OmegaNetwork,
        reverse: OmegaNetwork,
        cache,
        memory_port_of: Callable[[int], int],
        monitor=None,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.global_port = global_port
        self.cache = cache
        self.monitor = monitor
        self.tracer = tracer
        self.trace = tracer.if_enabled() if tracer is not None else None
        self.port = NetworkPort(engine, global_port, forward, reverse, memory_port_of)
        self.pfu = PrefetchUnit(engine, config.prefetch, self.port, tracer=tracer)
        self._sanitizer = sanitize.current()
        self.flops = 0.0
        self.finished_at: Optional[int] = None
        self._coroutine: Optional[KernelCoroutine] = None
        self._done_callbacks: List[Callable[[], None]] = []

    # -- lifecycle ---------------------------------------------------------

    def run(self, kernel: KernelFactory, on_done: Optional[Callable[[], None]] = None) -> None:
        """Start executing a kernel coroutine on this CE."""
        if self._coroutine is not None and self.finished_at is None:
            raise SimulationError(f"CE {self.global_port} is already running a kernel")
        self._coroutine = kernel(self)
        self.finished_at = None
        if on_done is not None:
            self._done_callbacks.append(on_done)
        self.engine.schedule(0, lambda: self._advance(None))

    @property
    def idle(self) -> bool:
        return self._coroutine is None or self.finished_at is not None

    def _advance(self, value: object) -> None:
        assert self._coroutine is not None
        try:
            operation = self._coroutine.send(value)
        except StopIteration:
            self.finished_at = self.engine.now
            callbacks, self._done_callbacks = self._done_callbacks, []
            for callback in callbacks:
                callback()
            return
        self._dispatch(operation)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, operation: object) -> None:
        if isinstance(operation, Compute):
            self._do_compute(operation)
        elif isinstance(operation, ArmFirePrefetch):
            self._do_arm_fire(operation)
        elif isinstance(operation, ConsumePrefetch):
            self._do_consume(operation)
        elif isinstance(operation, AwaitPrefetch):
            self._do_await(operation)
        elif isinstance(operation, GlobalLoads):
            self._do_loads(operation)
        elif isinstance(operation, GlobalStores):
            self._do_stores(operation)
        elif isinstance(operation, VectorCacheOp):
            self._do_vector_cache(operation)
        elif isinstance(operation, SyncInstruction):
            self._do_sync(operation)
        elif isinstance(operation, PostEvent):
            self._do_post(operation)
        else:
            raise SimulationError(f"CE cannot execute {operation!r}")

    def _do_compute(self, op: Compute) -> None:
        if op.cycles < 0:
            raise SimulationError(f"negative compute time {op.cycles}")
        self.flops += op.flops
        self.engine.schedule(op.cycles, lambda: self._advance(None))

    def _do_arm_fire(self, op: ArmFirePrefetch) -> None:
        self.pfu.arm(op.length, op.stride)
        handle = self.pfu.fire(op.start_address)
        # Arming and firing cost one instruction issue.
        self.engine.schedule(1, lambda: self._advance(handle))

    def _do_consume(self, op: ConsumePrefetch) -> None:
        handle = op.handle
        engine = self.engine
        startup = self.config.vector.startup_cycles
        length = handle.length
        arrivals = handle.arrival_cycles
        sanitizer = self._sanitizer
        index = 0
        ready_at = engine._now + startup

        def step() -> None:
            nonlocal index, ready_at
            if index >= length:
                self.flops += op.flops_per_element * length
                delay = max(0, ready_at - engine._now)
                engine.schedule(delay, lambda: self._advance(engine._now))
                return
            if arrivals[index] is not None:
                if sanitizer is not None:
                    # Read-side full/empty protocol: consuming a word
                    # requires its full bit to be set.
                    sanitizer.check_fullempty_read(
                        f"ce{self.global_port:02d}", handle, index
                    )
                # One element per cycle once the datum is in the buffer.
                index += 1
                now = engine._now
                ready_at = (ready_at if ready_at > now else now) + 1
                engine.schedule_after(0, step)  # in dispatch: no checks
            else:
                handle.wait_for_word(index, step)

        engine.schedule(startup, step)

    def _do_await(self, op: AwaitPrefetch) -> None:
        handle = op.handle
        arrivals = handle.arrival_cycles
        # Words before the one last waited for have all arrived, and a
        # full bit never clears: each wake resumes the scan there.
        missing = 0

        def check() -> None:
            nonlocal missing
            if handle.complete:
                self._advance(self.engine._now)
            else:
                while arrivals[missing] is not None:
                    missing += 1
                handle.wait_for_word(missing, check)

        check()

    def _do_loads(self, op: GlobalLoads) -> None:
        engine = self.engine
        port = self.port
        forward = port.forward
        memory_port_of = port.memory_port_of
        source = self.global_port
        startup = self.config.vector.startup_cycles
        buffer_cycles = self.config.global_memory.ce_buffer_cycles
        issued = arrived = outstanding = 0

        def issue() -> None:
            nonlocal issued, outstanding
            while issued < op.length and outstanding < op.max_outstanding:
                address = op.start_address + issued * op.stride
                tag = port.new_tag(on_reply)
                packet = Packet(
                    PacketKind.READ_REQUEST, source, memory_port_of(address),
                    address, 1, engine._now, tag,
                )
                if not forward.try_inject(source, packet):
                    port.release_tag(tag)
                    forward.on_entry_space(source, issue)
                    return
                issued += 1
                outstanding += 1

        def on_reply(packet: Packet) -> None:
            # Moving the datum from the interface into a register costs the
            # CE-side portion of the 13-cycle latency and holds the request
            # slot: without a prefetch buffer the CE is throughput-bound at
            # max_outstanding words per 13 cycles (the GM/no-pref regime).
            # Replies arrive inside dispatch and the delay is a config int,
            # so the unchecked entry point serves (the sanitizer re-checks).
            engine.schedule_after(buffer_cycles, landed)

        def landed() -> None:
            nonlocal arrived, outstanding
            arrived += 1
            outstanding -= 1
            if arrived == op.length:
                self.flops += op.flops_per_element * op.length
                self._advance(engine._now)
            else:
                issue()

        engine.schedule(startup, issue)

    def _do_stores(self, op: GlobalStores) -> None:
        engine = self.engine
        forward = self.port.forward
        memory_port_of = self.port.memory_port_of
        source = self.global_port
        issued = 0

        def issue() -> None:
            nonlocal issued
            while issued < op.length:
                address = op.start_address + issued * op.stride
                packet = Packet(
                    PacketKind.WRITE_REQUEST, source, memory_port_of(address),
                    address, 2, engine._now,  # header + datum
                )
                if not forward.try_inject(source, packet):
                    forward.on_entry_space(source, issue)
                    return
                issued += 1
            engine.schedule(1, lambda: self._advance(engine._now))

        issue()

    def _do_vector_cache(self, op: VectorCacheOp) -> None:
        if op.length < 1:
            raise SimulationError("vector cache op needs length >= 1")
        startup = self.config.vector.startup_cycles
        finish = self.cache.stream(op.length, resident=op.resident)
        # The instruction retires when both the pipeline (startup + one
        # element/cycle) and the cache stream are done.
        pipeline_done = self.engine.now + startup + op.length
        done = max(finish, pipeline_done)
        self.flops += op.flops_per_element * op.length
        self.engine.schedule(done - self.engine.now, lambda: self._advance(self.engine.now))

    def _do_sync(self, op: SyncInstruction) -> None:
        tag = self.port.new_tag(lambda packet: self._advance(packet.payload))
        payload = {
            "test_and_set": op.test_and_set,
            "test": op.test,
            "key": op.key,
            "op": op.op,
            "operand": op.operand,
        }
        packet = Packet(
            kind=PacketKind.SYNC_REQUEST,
            source=self.global_port,
            destination=self.port.memory_port_of(op.address),
            address=op.address,
            words=2,
            issue_cycle=self.engine.now,
            request_tag=tag,
            payload=payload,
        )

        def send() -> None:
            if not self.port.forward.try_inject(self.global_port, packet):
                self.port.forward.on_entry_space(self.global_port, send)

        send()

    def _do_post(self, op: PostEvent) -> None:
        # Software events travel the trace bus when one is cabled up (the
        # monitor's software tracer subscribes to them there); a monitor
        # without a bus is fed directly, as before.
        if self.tracer is not None:
            self.tracer.publish(
                "software.event", (self.engine.now, op.signal, op.value)
            )
            if self.trace is not None:
                self.trace.instant(
                    f"ce{self.global_port:02d}", op.signal,
                    cycle=self.engine.now, value=op.value,
                )
        elif self.monitor is not None:
            self.monitor.tracer("software").post(self.engine.now, op.signal, op.value)
        self.engine.schedule(0, lambda: self._advance(None))
