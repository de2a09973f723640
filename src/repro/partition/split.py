"""Partitioned Cedar machines: the cut applied, three elaborations deep.

The machine splits along its natural seam -- clusters (CEs, caches,
prefetch units) plus the forward network on one side, interleaved
global-memory modules plus the reverse network on the other -- with all
cross-side traffic flowing through the boundary channels of
:mod:`repro.partition.boundary` under the epoch discipline of
:mod:`repro.partition.epochs`.  Three elaborations share that structure:

* :class:`FusedPartitionedMachine` -- one engine, the stock
  :class:`~repro.hardware.machine.CedarMachine` with the boundary fabrics
  injected through its delivery seams.  This is the reference: it proves
  the seam itself (machine.py wiring) and anchors the split-vs-fused
  byte-identity tests.
* :class:`SplitPartitionedMachine` -- two engines in one process, one per
  side, coupled *only* by the channels.  Identical results to the fused
  machine because within an epoch the sides touch disjoint state and the
  barrier flush order is fixed (the determinism argument of DESIGN.md
  §10).
* :class:`ProcessSplitMachine` -- the memory side moves to a worker
  process over a duplex pipe; parent and child simulate each epoch
  concurrently and exchange boundary messages + credits at the barrier.
  A dead worker surfaces as :class:`~repro.errors.WorkerCrashError`, and
  the parent accounts barrier-stall time (how long it blocked on the
  child) for the telemetry the CLI reports.

These machines are a *different elaboration* of the same hardware than
the single-engine ``CedarMachine``: the cut inserts the network's minimum
traversal latency at the boundary, so contended timings differ from the
direct wiring.  Fidelity experiments therefore keep the stock machine;
the partitioned elaborations are the foundation for machine-graph
distribution (ROADMAP item 3) and are verified against each other.
"""

from __future__ import annotations

# ProcessSplitMachine is the one audited fork seam outside the sanctioned
# runners: its epoch barrier delivers boundary messages in declared channel
# order, pinned byte-identical to the fused machine by test_partition.py.
import multiprocessing  # cedar: noqa[det.mp-scope]
import time
from functools import partial
from typing import Dict, List, Optional

from repro.config import CedarConfig, DEFAULT_CONFIG
from repro.errors import SimulationError, WorkerCrashError
from repro.hardware import sanitize
from repro.hardware.ce import ComputationalElement, KernelFactory
from repro.hardware.cluster import Cluster
from repro.hardware.engine import Engine
from repro.hardware.machine import CedarMachine, _default_sync_handler
from repro.hardware.memory import GlobalMemory
from repro.hardware.monitor import PerformanceMonitor
from repro.hardware.network import OmegaNetwork
from repro.partition.boundary import BoundaryChannel, SenderTap
from repro.partition.epochs import EpochScheduler, lookahead_cycles
from repro.trace import Tracer


def _ports(config: CedarConfig) -> int:
    return max(config.num_ces, config.global_memory.num_modules)


def _channel_capacity(config: CedarConfig) -> int:
    # Mirror the networks' own exit buffering: two port-queues deep.
    return 2 * config.network.port_queue_words


class ClusterSide:
    """The cluster partition: forward network, clusters, monitor."""

    def __init__(
        self,
        config: CedarConfig,
        request_channel: BoundaryChannel,
        reply_channel: BoundaryChannel,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.engine = Engine()
        sanitizer = sanitize.current()
        if sanitizer is not None:
            sanitizer.register_engine(self.engine)
        if tracer is None:
            tracer = Tracer(enabled=False)
        self.tracer = tracer
        self.engine.tracer = tracer.if_enabled()
        self.monitor = PerformanceMonitor(config.monitor)
        self.monitor.connect(tracer)
        ports = _ports(config)
        self.forward = OmegaNetwork(
            self.engine, ports, config.network, name="fwd", tracer=tracer
        )
        self.clusters: List[Cluster] = [
            Cluster(
                engine=self.engine,
                config=config,
                index=i,
                forward=self.forward,
                reverse=reply_channel,
                monitor=self.monitor,
                tracer=tracer,
            )
            for i in range(config.num_clusters)
        ]
        self.taps = [
            SenderTap(
                self.engine,
                self.forward.delivery_queue(port),
                request_channel.links[port],
            )
            for port in range(ports)
        ]

    @property
    def all_ces(self) -> List[ComputationalElement]:
        return [ce for cluster in self.clusters for ce in cluster.ces]

    def ces(self, count: int) -> List[ComputationalElement]:
        if not 1 <= count <= self.config.num_ces:
            raise SimulationError(
                f"machine has {self.config.num_ces} CEs, asked for {count}"
            )
        return self.all_ces[:count]


class MemorySide:
    """The memory partition: reverse network, global-memory modules."""

    def __init__(
        self,
        config: CedarConfig,
        request_channel: BoundaryChannel,
        reply_channel: BoundaryChannel,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.engine = Engine()
        sanitizer = sanitize.current()
        if sanitizer is not None:
            sanitizer.register_engine(self.engine)
        if tracer is None:
            tracer = Tracer(enabled=False)
        self.tracer = tracer
        self.engine.tracer = tracer.if_enabled()
        ports = _ports(config)
        self.reverse = OmegaNetwork(
            self.engine, ports, config.network, name="rev", tracer=tracer
        )
        self.global_memory = GlobalMemory(
            engine=self.engine,
            config=config.global_memory,
            sync_config=config.sync,
            forward=request_channel,
            reverse=self.reverse,
            sync_handler=_default_sync_handler,
            tracer=tracer,
        )
        self.taps = [
            SenderTap(
                self.engine,
                self.reverse.delivery_queue(port),
                reply_channel.links[port],
            )
            for port in range(ports)
        ]


class _EpochKernelMixin:
    """run_kernel over an epoch scheduler (shared by the three machines)."""

    config: CedarConfig
    scheduler: EpochScheduler

    def _cluster_engine(self) -> Engine:
        raise NotImplementedError

    def ces(self, count: int) -> List[ComputationalElement]:
        raise NotImplementedError

    def run_kernel(
        self, kernel: KernelFactory, num_ces: Optional[int] = None
    ) -> int:
        """Run one kernel factory on N CEs until all complete and drain."""
        selected = self.ces(num_ces or self.config.num_ces)
        done = {"remaining": len(selected), "at": 0}
        engine = self._cluster_engine()

        def one_done() -> None:
            done["remaining"] -= 1
            done["at"] = engine.now

        for ce in selected:
            ce.run(kernel, on_done=one_done)
        self.scheduler.run(done=lambda: done["remaining"] == 0)
        if done["remaining"] != 0:
            raise SimulationError(
                f"{done['remaining']} CEs never finished under the epoch "
                "scheduler (partition deadlock)"
            )
        return done["at"]

    @property
    def total_flops(self) -> float:
        return sum(ce.flops for ce in self.all_ces)  # type: ignore[attr-defined]


class FusedPartitionedMachine(_EpochKernelMixin):
    """One engine, boundary channels injected into the stock machine."""

    def __init__(
        self,
        config: CedarConfig = DEFAULT_CONFIG,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        ports = _ports(config)
        lookahead = lookahead_cycles(config)
        capacity = _channel_capacity(config)
        self.request_channel = BoundaryChannel(
            "bnd.req", ports, lookahead, capacity
        )
        self.reply_channel = BoundaryChannel(
            "bnd.rep", ports, lookahead, capacity
        )
        self.machine = CedarMachine(
            config,
            tracer,
            request_delivery=self.request_channel,
            reply_delivery=self.reply_channel,
        )
        engine = self.machine.engine
        self.taps = [
            SenderTap(
                engine,
                self.machine.forward.delivery_queue(port),
                self.request_channel.links[port],
            )
            for port in range(ports)
        ] + [
            SenderTap(
                engine,
                self.machine.reverse.delivery_queue(port),
                self.reply_channel.links[port],
            )
            for port in range(ports)
        ]
        self.scheduler = EpochScheduler(
            engines=[engine],
            channels=[
                (self.request_channel, engine, engine),
                (self.reply_channel, engine, engine),
            ],
            epoch_cycles=lookahead,
        )

    def _cluster_engine(self) -> Engine:
        return self.machine.engine

    @property
    def all_ces(self) -> List[ComputationalElement]:
        return self.machine.all_ces

    def ces(self, count: int) -> List[ComputationalElement]:
        return self.machine.ces(count)

    @property
    def monitor(self) -> PerformanceMonitor:
        return self.machine.monitor

    @property
    def global_memory(self) -> GlobalMemory:
        return self.machine.global_memory


class SplitPartitionedMachine(_EpochKernelMixin):
    """Cluster side and memory side on separate engines, one process."""

    def __init__(self, config: CedarConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        ports = _ports(config)
        lookahead = lookahead_cycles(config)
        capacity = _channel_capacity(config)
        self.request_channel = BoundaryChannel(
            "bnd.req", ports, lookahead, capacity
        )
        self.reply_channel = BoundaryChannel(
            "bnd.rep", ports, lookahead, capacity
        )
        self.cluster_side = ClusterSide(
            config, self.request_channel, self.reply_channel
        )
        self.memory_side = MemorySide(
            config, self.request_channel, self.reply_channel
        )
        self.scheduler = EpochScheduler(
            engines=[self.cluster_side.engine, self.memory_side.engine],
            channels=[
                (
                    self.request_channel,
                    self.cluster_side.engine,
                    self.memory_side.engine,
                ),
                (
                    self.reply_channel,
                    self.memory_side.engine,
                    self.cluster_side.engine,
                ),
            ],
            epoch_cycles=lookahead,
        )

    def _cluster_engine(self) -> Engine:
        return self.cluster_side.engine

    @property
    def all_ces(self) -> List[ComputationalElement]:
        return self.cluster_side.all_ces

    def ces(self, count: int) -> List[ComputationalElement]:
        return self.cluster_side.ces(count)

    @property
    def monitor(self) -> PerformanceMonitor:
        return self.cluster_side.monitor

    @property
    def global_memory(self) -> GlobalMemory:
        return self.memory_side.global_memory

    def partition_stats(self) -> List[Dict[str, object]]:
        return [
            {
                "partition": "cluster",
                "events_dispatched": self.cluster_side.engine.events_dispatched,
            },
            {
                "partition": "memory",
                "events_dispatched": self.memory_side.engine.events_dispatched,
            },
        ]


def _memory_side_main(conn, config: CedarConfig) -> None:
    """Worker-process loop: a passive memory side driven by the pipe.

    Protocol (parent -> child per epoch, then child -> parent):

    * ``("epoch", epoch, end, requests, reply_credits)`` -- boundary
      requests staged at the parent's previous barrier plus reply-channel
      credit returns; the child schedules/applies them, runs its engine to
      ``end``, and answers
    * ``("done", end, replies, request_credits, pending, next_cycle,
      idle, events)`` -- its epoch's staged replies, request-channel
      credit returns, and quiescence/fast-forward telemetry.
    * ``("stop",)`` ends the loop.
    """
    ports = _ports(config)
    lookahead = lookahead_cycles(config)
    capacity = _channel_capacity(config)
    request_channel = BoundaryChannel("bnd.req", ports, lookahead, capacity)
    reply_channel = BoundaryChannel("bnd.rep", ports, lookahead, capacity)
    request_channel.mark_remote()
    reply_channel.mark_remote()
    side = MemorySide(config, request_channel, reply_channel)
    engine = side.engine
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _tag, epoch, end, requests, reply_credits = message
            request_channel.epoch = epoch
            reply_channel.epoch = epoch
            # Same order as EpochScheduler._barrier flushes the memory
            # engine: request deliveries first, then reply-tap re-arms.
            for request in requests:
                engine.schedule(
                    request.send_cycle + request_channel.latency - engine.now,
                    partial(request_channel.deliver, request),
                )
            reply_channel.apply_credits(reply_credits, engine)
            engine.run(until=end)
            replies = reply_channel.drain_outboxes()
            request_credits = request_channel.take_returned_credits()
            conn.send(
                (
                    "done",
                    end,
                    replies,
                    request_credits,
                    engine.pending(),
                    engine.next_event_cycle(),
                    reply_channel.idle(),
                    engine.events_dispatched,
                )
            )
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        conn.close()


class ProcessSplitMachine:
    """Memory side in a worker process; epochs overlap across the pipe.

    The parent runs its cluster epoch while the child runs the matching
    memory epoch, so on two cores the critical path per epoch is
    ``max(cluster, memory)`` work instead of their sum.  Exchange order at
    the barrier matches :class:`SplitPartitionedMachine` exactly
    (requests, then replies, port-ascending, send-order within a link), so
    both produce identical runs.
    """

    def __init__(self, config: CedarConfig = DEFAULT_CONFIG) -> None:
        self.config = config
        ports = _ports(config)
        self.epoch_cycles = lookahead_cycles(config)
        capacity = _channel_capacity(config)
        self.request_channel = BoundaryChannel(
            "bnd.req", ports, self.epoch_cycles, capacity
        )
        self.reply_channel = BoundaryChannel(
            "bnd.rep", ports, self.epoch_cycles, capacity
        )
        self.request_channel.mark_remote()
        self.reply_channel.mark_remote()
        self.cluster_side = ClusterSide(
            config, self.request_channel, self.reply_channel
        )
        context = multiprocessing.get_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        self._conn = parent_conn
        self._process = context.Process(
            target=_memory_side_main,
            args=(child_conn, config),
            daemon=True,
            name="cedar-partition-memory",
        )
        self._process.start()
        child_conn.close()
        self.barrier_stall_seconds = 0.0
        self.remote_events_dispatched = 0
        self.epochs_run = 0
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        try:
            if self._process.is_alive():
                self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
        self._conn.close()

    def __enter__(self) -> "ProcessSplitMachine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _recv(self):
        """Blocking receive that surfaces a dead worker, timing the stall."""
        began = time.perf_counter()
        try:
            while not self._conn.poll(0.05):
                if not self._process.is_alive():
                    raise WorkerCrashError(
                        "partition:memory",
                        "memory-side worker died mid-epoch",
                        exitcode=self._process.exitcode,
                    )
            return self._conn.recv()
        except EOFError:
            raise WorkerCrashError(
                "partition:memory",
                "memory-side worker closed the pipe mid-epoch",
                exitcode=self._process.exitcode,
            ) from None
        finally:
            self.barrier_stall_seconds += time.perf_counter() - began

    # -- CE plumbing ---------------------------------------------------------

    @property
    def all_ces(self) -> List[ComputationalElement]:
        return self.cluster_side.all_ces

    def ces(self, count: int) -> List[ComputationalElement]:
        return self.cluster_side.ces(count)

    @property
    def monitor(self) -> PerformanceMonitor:
        return self.cluster_side.monitor

    @property
    def total_flops(self) -> float:
        return sum(ce.flops for ce in self.all_ces)

    # -- the overlapped epoch loop -------------------------------------------

    def run_kernel(
        self,
        kernel: KernelFactory,
        num_ces: Optional[int] = None,
        max_epochs: int = 10_000_000,
    ) -> int:
        selected = self.ces(num_ces or self.config.num_ces)
        done = {"remaining": len(selected), "at": 0}
        engine = self.cluster_side.engine

        def one_done() -> None:
            done["remaining"] -= 1
            done["at"] = engine.now

        for ce in selected:
            ce.run(kernel, on_done=one_done)

        pending_requests: List = []
        pending_reply_credits: List[tuple] = []
        epoch = engine.now // self.epoch_cycles
        iterations = 0
        while True:
            iterations += 1
            if iterations > max_epochs:
                raise SimulationError(
                    f"exceeded {max_epochs} epochs without completing"
                )
            end = (epoch + 1) * self.epoch_cycles - 1
            self.request_channel.epoch = epoch
            self.reply_channel.epoch = epoch
            # Ship the child everything it needs for this epoch, then both
            # sides simulate the same window concurrently.
            self._conn.send(
                ("epoch", epoch, end, pending_requests, pending_reply_credits)
            )
            engine.run(until=end)
            (
                _tag,
                _end,
                replies,
                request_credits,
                remote_pending,
                remote_next,
                remote_idle,
                remote_events,
            ) = self._recv()
            self.remote_events_dispatched = remote_events
            self.epochs_run += 1
            # Barrier, in the same order the in-process scheduler flushes:
            # request channel first, then replies.
            pending_requests = self.request_channel.drain_outboxes()
            self.request_channel.apply_credits(request_credits, engine)
            for reply in replies:
                engine.schedule(
                    reply.send_cycle + self.reply_channel.latency - engine.now,
                    partial(self.reply_channel.deliver, reply),
                )
            pending_reply_credits = self.reply_channel.take_returned_credits()
            if (
                done["remaining"] == 0
                and engine.pending() == 0
                and remote_pending == 0
                and remote_idle
                and not replies
                and not pending_requests
                and not pending_reply_credits
                and not self.request_channel.stalled_taps()
            ):
                return done["at"]
            # Fast-forward over epochs provably inert on both sides.  The
            # candidates must cover staged-but-unshipped boundary work --
            # requests deliver at send + latency and credit returns re-arm
            # taps at end + 1 -- or the jump could overshoot them.
            cycles = [c for c in (engine.next_event_cycle(), remote_next)
                      if c is not None]
            if pending_requests:
                cycles.append(
                    min(m.send_cycle for m in pending_requests)
                    + self.request_channel.latency
                )
            if pending_reply_credits:
                cycles.append(end + 1)
            if cycles:
                epoch = max(epoch + 1, min(cycles) // self.epoch_cycles)
            else:
                epoch += 1
