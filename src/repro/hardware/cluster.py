"""One Alliant FX/8 cluster: eight CEs, shared cache, cluster memory, CCB."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import CedarConfig
from repro.hardware.cache import ClusterCache
from repro.hardware.ccb import BodyFactory, ConcurrencyControlBus
from repro.hardware.ce import ComputationalElement
from repro.hardware.engine import Engine
from repro.hardware.memory import address_steering
from repro.hardware.network import OmegaNetwork


class Cluster:
    """A slightly modified Alliant FX/8, as integrated into Cedar."""

    def __init__(
        self,
        engine: Engine,
        config: CedarConfig,
        index: int,
        forward: OmegaNetwork,
        reverse: OmegaNetwork,
        monitor=None,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.index = index
        self.cache = ClusterCache(
            engine, config.cache, config.cluster_memory, name=f"cl{index}.cache",
            tracer=tracer,
        )
        # The CE-side port choice is memory.address_steering, which the
        # sanitizer checks against module_for_address (the module-side
        # ownership) on every request, whatever interleave a builder spec
        # declares.
        memory_port_of = address_steering(
            config.global_memory.num_modules,
            config.global_memory.interleave_words,
        )
        self.ces: List[ComputationalElement] = [
            ComputationalElement(
                engine=engine,
                config=config,
                global_port=index * config.ces_per_cluster + ce,
                forward=forward,
                reverse=reverse,
                cache=self.cache,
                memory_port_of=memory_port_of,
                monitor=monitor,
                tracer=tracer,
            )
            for ce in range(config.ces_per_cluster)
        ]
        self.ccb = ConcurrencyControlBus(
            config.ccb, self.ces, tracer=tracer, name=f"ccb.cl{index}"
        )

    def cdoall(
        self,
        num_iterations: int,
        body: BodyFactory,
        on_done: Optional[Callable[[], None]] = None,
        static: bool = False,
    ) -> None:
        """Run a CDOALL over this cluster via the concurrency control bus."""
        self.ccb.concurrent_start(num_iterations, body, on_done=on_done, static=static)

    @property
    def total_flops(self) -> float:
        return sum(ce.flops for ce in self.ces)
