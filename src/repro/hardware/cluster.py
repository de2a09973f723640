"""One Alliant FX/8 cluster: eight CEs, shared cache, cluster memory, CCB."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import CedarConfig
from repro.hardware.cache import ClusterCache
from repro.hardware.ccb import BodyFactory, ConcurrencyControlBus
from repro.hardware.ce import ComputationalElement
from repro.hardware.engine import Engine
from repro.hardware.memory import module_for_address
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
        # Address steering shares memory.module_for_address so the CE-side
        # port choice and the module-side ownership can never disagree,
        # whatever interleave a builder spec declares.
        num_modules = config.global_memory.num_modules
        interleave_words = config.global_memory.interleave_words
        self.ces: List[ComputationalElement] = [
            ComputationalElement(
                engine=engine,
                config=config,
                global_port=index * config.ces_per_cluster + ce,
                forward=forward,
                reverse=reverse,
                cache=self.cache,
                memory_port_of=lambda a: module_for_address(
                    a, num_modules, interleave_words
                ),
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
