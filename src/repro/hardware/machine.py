"""The assembled Cedar machine: four clusters, two networks, global memory.

This is the top-level object kernels run against.  ``CedarMachine`` wires the
forward and reverse shuffle-exchange networks between the CEs and the
interleaved global-memory modules, attaches a synchronization processor to
every module, and exposes convenience entry points for running kernel
coroutines on subsets of the machine and reading back MFLOPS.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import CE_CYCLE_SECONDS, CedarConfig, active_config
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.ce import ComputationalElement, KernelFactory
from repro.hardware.cluster import Cluster
from repro.hardware.engine import Engine
from repro.hardware.memory import GlobalMemory
from repro.hardware.monitor import PerformanceMonitor
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet
from repro.hardware.sync_processor import OperateOp, SyncProcessor, TestOp
from repro.trace import Tracer, current_tracer


def _default_sync_handler(packet: Packet, sync: SyncProcessor) -> object:
    """Execute the synchronization instruction carried by a SYNC packet."""
    payload = packet.payload
    if not isinstance(payload, dict):
        raise SimulationError("sync request without an instruction payload")
    if payload.get("test_and_set"):
        return sync.test_and_set(packet.address)
    return sync.test_and_operate(
        address=packet.address,
        test=payload.get("test", TestOp.ALWAYS),
        key=payload.get("key", 0),
        op=payload.get("op", OperateOp.READ),
        operand=payload.get("operand", 0),
    )


class CedarMachine:
    """The full system of Figure 1."""

    def __init__(
        self,
        config: Optional[CedarConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Assemble the machine.

        ``config`` defaults to the *ambient* configuration
        (:func:`repro.config.active_config`): the paper's machine unless a
        :func:`repro.config.overriding` block -- e.g. a serve job carrying
        a builder ``spec`` -- installed another shape.
        """
        if config is None:
            config = active_config()
        self.config = config
        #: The declarative spec this machine was elaborated from, when it
        #: came through :func:`repro.builder.build` (None for machines
        #: constructed directly from a config).
        self.spec = None
        self.engine = Engine()
        # Invariant sanitizer: the ambient one (see `sanitizing()` /
        # CEDAR_SANITIZE), adopted before any component is built so every
        # hook below snapshots the same instance.
        self.sanitizer = sanitize.current()
        if self.sanitizer is not None:
            self.sanitizer.register_engine(self.engine)
        # Instrumentation bus: an explicit tracer wins, else the ambient one
        # installed by `tracing()` (how `cedar-repro trace` reaches machines
        # built deep inside experiment drivers), else a disabled local bus so
        # the monitor's signal cabling below is unconditional.
        if tracer is None:
            tracer = current_tracer()
        if tracer is None:
            tracer = Tracer(enabled=False, max_records=0)
        self.tracer = tracer
        tracer.set_clock(lambda: self.engine.now)
        self.engine.tracer = tracer.if_enabled()
        self.monitor = PerformanceMonitor(config.monitor)
        self.monitor.connect(tracer)
        ports = max(config.num_ces, config.global_memory.num_modules)
        self.forward = OmegaNetwork(
            self.engine, ports, config.network, name="fwd", tracer=tracer
        )
        self.reverse = OmegaNetwork(
            self.engine, ports, config.network, name="rev", tracer=tracer
        )
        self.global_memory = GlobalMemory(
            engine=self.engine,
            config=config.global_memory,
            sync_config=config.sync,
            forward=self.forward,
            reverse=self.reverse,
            sync_handler=_default_sync_handler,
            tracer=tracer,
        )
        self.clusters: List[Cluster] = [
            Cluster(
                engine=self.engine,
                config=config,
                index=i,
                forward=self.forward,
                reverse=self.reverse,
                monitor=self.monitor,
                tracer=tracer,
            )
            for i in range(config.num_clusters)
        ]

    # -- CE selection --------------------------------------------------------

    @property
    def all_ces(self) -> List[ComputationalElement]:
        return [ce for cluster in self.clusters for ce in cluster.ces]

    def ces(self, count: int) -> List[ComputationalElement]:
        """The first ``count`` CEs, filled cluster by cluster (as the paper's
        8/16/32-processor experiments were run)."""
        if not 1 <= count <= self.config.num_ces:
            raise SimulationError(
                f"machine has {self.config.num_ces} CEs, asked for {count}"
            )
        return self.all_ces[:count]

    # -- running kernels -------------------------------------------------------

    def run_kernel(
        self,
        kernel: KernelFactory,
        num_ces: Optional[int] = None,
        until: Optional[int] = None,
    ) -> int:
        """Run one kernel factory on N CEs until all complete.

        Returns the cycle at which the last CE finished.
        """
        selected = self.ces(num_ces or self.config.num_ces)
        done = {"remaining": len(selected), "at": 0}

        def one_done() -> None:
            done["remaining"] -= 1
            done["at"] = self.engine.now

        trace = self.tracer.if_enabled()
        if trace is not None:
            trace.begin("machine", f"run_kernel[{len(selected)} ces]")
        try:
            for ce in selected:
                ce.run(kernel, on_done=one_done)
            self.engine.run(until=until)
        finally:
            if trace is not None:
                trace.end("machine")
        if done["remaining"] != 0:
            raise SimulationError(
                f"{done['remaining']} CEs never finished (deadlock or until= too small)"
            )
        return done["at"]

    # -- measurement -----------------------------------------------------------

    @property
    def total_flops(self) -> float:
        return sum(ce.flops for ce in self.all_ces)

    def mflops(self, cycles: int, flops: Optional[float] = None) -> float:
        """Delivered MFLOPS over a window of ``cycles``."""
        if cycles <= 0:
            raise SimulationError(f"need a positive cycle window, got {cycles}")
        work = self.total_flops if flops is None else flops
        return work / (cycles * CE_CYCLE_SECONDS) / 1e6

    def seconds(self, cycles: int) -> float:
        return cycles * CE_CYCLE_SECONDS
