"""The concurrency control bus (Section 2, "Alliant clusters").

"Concurrency control instructions implement fast fork, join and
synchronization operations.  For example: concurrent start is a single
instruction that 'spreads' the iterations of a parallel loop from one to all
the CEs in a cluster ... The whole cluster is thus 'gang-scheduled'.  CEs
within a cluster can then 'self-schedule' iterations of the parallel loop
among themselves."
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import ConcurrencyBusConfig
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.ce import Compute, ComputationalElement, KernelCoroutine


class IterationCounter:
    """The shared loop-iteration dispenser behind self-scheduling."""

    def __init__(self, num_iterations: int) -> None:
        if num_iterations < 0:
            raise ValueError(f"iteration count must be >= 0, got {num_iterations}")
        self.num_iterations = num_iterations
        self._next = 0

    def claim(self) -> Optional[int]:
        """Next unclaimed iteration, or None when the loop is exhausted."""
        if self._next >= self.num_iterations:
            return None
        iteration = self._next
        self._next += 1
        return iteration

    @property
    def remaining(self) -> int:
        return self.num_iterations - self._next


BodyFactory = Callable[[ComputationalElement, int], KernelCoroutine]


class ConcurrencyControlBus:
    """Gang-scheduling and self-scheduling for one cluster's CEs."""

    def __init__(
        self,
        config: ConcurrencyBusConfig,
        ces: List[ComputationalElement],
        tracer=None,
        name: str = "ccb",
    ) -> None:
        if not ces:
            raise SimulationError("a concurrency control bus needs CEs")
        self.config = config
        self.ces = ces
        self.engine = ces[0].engine
        self.name = name
        self.trace = tracer.if_enabled() if tracer is not None else None
        self._sanitizer = sanitize.current()

    def concurrent_start(
        self,
        num_iterations: int,
        body: BodyFactory,
        on_done: Optional[Callable[[], None]] = None,
        static: bool = False,
    ) -> None:
        """Spread a parallel loop across all CEs of the cluster.

        Args:
            num_iterations: Trip count of the CDOALL.
            body: Generator factory producing the micro-operations of one
                iteration on a given CE.
            on_done: Invoked once every CE has passed the join.
            static: Pre-assign iterations round-robin instead of
                self-scheduling (the run-time library supports both).
        """
        counter = IterationCounter(num_iterations)
        remaining = {"ces": len(self.ces)}
        trace = self.trace
        sanitizer = self._sanitizer
        start_cycle = self.engine.now
        if trace is not None:
            trace.count(self.name, "concurrent_starts")
        if sanitizer is not None:
            sanitizer.register_cdoall(counter, num_iterations, len(self.ces))

        def ce_finished() -> None:
            remaining["ces"] -= 1
            if remaining["ces"] == 0:
                if sanitizer is not None:
                    sanitizer.ccb_join(counter, static)
                if trace is not None:
                    trace.complete(
                        self.name,
                        f"cdoall[{num_iterations} iters x {len(self.ces)} ces]",
                        start_cycle, self.engine.now,
                        static=static,
                    )
                if on_done is not None:
                    on_done()

        for position, ce in enumerate(self.ces):
            kernel = self._make_worker(position, counter, body, static)
            ce.run(kernel, on_done=ce_finished)

    def _make_worker(
        self,
        position: int,
        counter: IterationCounter,
        body: BodyFactory,
        static: bool,
    ):
        config = self.config
        num_ces = len(self.ces)
        trace = self.trace
        name = self.name
        sanitizer = self._sanitizer

        def worker(ce: ComputationalElement) -> KernelCoroutine:
            # Concurrent-start broadcast: program counter + private stacks.
            yield Compute(config.concurrent_start_cycles)
            if static:
                iteration = position
                while iteration < counter.num_iterations:
                    yield from body(ce, iteration)
                    iteration += num_ces
            else:
                while True:
                    iteration = counter.claim()
                    if iteration is None:
                        break
                    if sanitizer is not None:
                        sanitizer.ccb_claimed(counter, iteration)
                    if trace is not None:
                        trace.count(name, "iterations_acquired")
                    yield Compute(config.self_schedule_cycles)
                    yield from body(ce, iteration)
            yield Compute(config.join_cycles)

        return worker
