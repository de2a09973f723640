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

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.config import CedarConfig
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.prefetch import PrefetchHandle, PrefetchUnit
from repro.hardware.sync_processor import OperateOp, TestOp
from repro.hardware.vector_unit import VectorUnit


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
    """One CE's interface to the forward/reverse global networks."""

    def __init__(
        self,
        engine: Engine,
        port: int,
        forward: OmegaNetwork,
        reverse: OmegaNetwork,
    ) -> None:
        self.engine = engine
        self.port = port
        self.forward = forward
        self.reverse = reverse
        self._next_tag = 0
        self._callbacks: Dict[int, Callable[[Packet], None]] = {}
        reverse.attach_sink(port, self._deliver)

    def new_tag(self, callback: Callable[[Packet], None]) -> int:
        tag = self._next_tag
        self._next_tag += 1
        self._callbacks[tag] = callback
        return tag

    def release_tag(self, tag: int) -> None:
        """Drop the callback of a tag whose request was never injected."""
        del self._callbacks[tag]

    def send(self, packet: Packet) -> bool:
        return self.forward.try_inject(self.port, packet)

    def on_space(self, waiter: Callable[[], None]) -> None:
        self.forward.on_entry_space(self.port, waiter)

    def _deliver(self, packet: Packet) -> None:
        tag = packet.request_tag
        callback = self._callbacks.pop(tag, None)
        if callback is None:
            raise SimulationError(f"reply with unknown tag {tag} at port {self.port}")
        callback(packet)


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
        cluster_index: int = 0,
        index_in_cluster: int = 0,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.global_port = global_port
        self.cluster_index = cluster_index
        self.index_in_cluster = index_in_cluster
        self.cache = cache
        self.monitor = monitor
        self.tracer = tracer
        self.trace = tracer.if_enabled() if tracer is not None else None
        self.vector_unit = VectorUnit(config.vector)
        self.port = NetworkPort(engine, global_port, forward, reverse)
        self.pfu = PrefetchUnit(
            engine=engine,
            config=config.prefetch,
            send=self.port.send,
            on_send_space=self.port.on_space,
            new_tag=self.port.new_tag,
            release_tag=self.port.release_tag,
            port=global_port,
            memory_port_of=memory_port_of,
            tracer=tracer,
        )
        self._sanitizer = sanitize.current()
        self.flops = 0.0
        self.busy_until = 0
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
        startup = self.config.vector.startup_cycles
        state = {"index": 0, "ready_at": self.engine.now + startup}

        def step() -> None:
            index = state["index"]
            if index >= handle.length:
                self.flops += op.flops_per_element * handle.length
                delay = max(0, state["ready_at"] - self.engine.now)
                self.engine.schedule(delay, lambda: self._advance(self.engine.now))
                return
            if handle.is_available(index):
                if self._sanitizer is not None:
                    # Read-side full/empty protocol: consuming a word
                    # requires its full bit to be set.
                    self._sanitizer.check_fullempty_read(
                        f"ce{self.global_port:02d}", handle, index
                    )
                # One element per cycle once the datum is in the buffer.
                state["index"] = index + 1
                state["ready_at"] = max(state["ready_at"], self.engine.now) + 1
                self.engine.schedule_after(0, step)  # in dispatch: no checks
            else:
                handle.wait_for_word(index, step)

        self.engine.schedule(startup, step)

    def _do_await(self, op: AwaitPrefetch) -> None:
        handle = op.handle

        def check(index: int = handle.length - 1) -> None:
            if handle.complete:
                self._advance(self.engine.now)
            else:
                first_missing = next(
                    i for i in range(handle.length) if not handle.is_available(i)
                )
                handle.wait_for_word(first_missing, check)

        check()

    def _do_loads(self, op: GlobalLoads) -> None:
        startup = self.config.vector.startup_cycles
        state = {"issued": 0, "arrived": 0, "outstanding": 0}

        def issue() -> None:
            while (
                state["issued"] < op.length
                and state["outstanding"] < op.max_outstanding
            ):
                index = state["issued"]
                address = op.start_address + index * op.stride
                tag = self.port.new_tag(on_reply)
                packet = Packet(
                    kind=PacketKind.READ_REQUEST,
                    source=self.global_port,
                    destination=self._memory_port_of(address),
                    address=address,
                    words=1,
                    issue_cycle=self.engine.now,
                    request_tag=tag,
                )
                if not self.port.send(packet):
                    self.port.release_tag(tag)
                    self.port.on_space(issue)
                    return
                state["issued"] += 1
                state["outstanding"] += 1

        def on_reply(packet: Packet) -> None:
            # Moving the datum from the interface into a register costs the
            # CE-side portion of the 13-cycle latency and holds the request
            # slot: without a prefetch buffer the CE is throughput-bound at
            # max_outstanding words per 13 cycles (the GM/no-pref regime).
            # Replies arrive inside dispatch and the delay is a config int,
            # so the unchecked entry point serves (the sanitizer re-checks).
            self.engine.schedule_after(
                self.config.global_memory.ce_buffer_cycles, landed
            )

        def landed() -> None:
            state["arrived"] += 1
            state["outstanding"] -= 1
            if state["arrived"] == op.length:
                self.flops += op.flops_per_element * op.length
                self._advance(self.engine.now)
            else:
                issue()

        self.engine.schedule(startup, issue)

    def _memory_port_of(self, address: int) -> int:
        return address % self.config.global_memory.num_modules

    def _do_stores(self, op: GlobalStores) -> None:
        state = {"issued": 0}

        def issue() -> None:
            while state["issued"] < op.length:
                index = state["issued"]
                address = op.start_address + index * op.stride
                packet = Packet(
                    kind=PacketKind.WRITE_REQUEST,
                    source=self.global_port,
                    destination=self._memory_port_of(address),
                    address=address,
                    words=2,  # header + datum
                    issue_cycle=self.engine.now,
                )
                if not self.port.send(packet):
                    self.port.on_space(issue)
                    return
                state["issued"] += 1
            self.engine.schedule(1, lambda: self._advance(self.engine.now))

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
            destination=self._memory_port_of(op.address),
            address=op.address,
            words=2,
            issue_cycle=self.engine.now,
            request_tag=tag,
            payload=payload,
        )

        def send() -> None:
            if not self.port.send(packet):
                self.port.on_space(send)

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
