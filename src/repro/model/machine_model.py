"""Executes :mod:`repro.lang` programs against the analytic cost model.

The model walks a program's constructs and charges each one compute time,
memory time (the two overlap: vector loads stream while arithmetic runs, so
a body costs ``max(compute, memory)``), scheduling overhead, and
synchronization/I-O/move costs.  It produces both the parallel execution
time under a set of :class:`RuntimeOptions` and the uniprocessor scalar time
the paper's speed improvements are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import CE_CYCLE_SECONDS, CedarConfig, DEFAULT_CONFIG
from repro.errors import ProgramError
from repro.lang.loops import (
    Barrier,
    Construct,
    DataMove,
    Doall,
    IOSection,
    LoopKind,
    Reduction,
    SerialSection,
    VirtualMemoryActivity,
    Work,
)
from repro.lang.placement import Placement
from repro.lang.program import Program
from repro.lang.runtime import DEFAULT_OPTIONS, RuntimeOptions, Schedule
from repro.model.costs import CostModel
from repro.trace import Tracer, current_tracer


@dataclass
class ExecutionReport:
    """Timing of one program execution."""

    program: str
    seconds: float
    processors: int
    flops: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def mflops(self) -> float:
        if self.seconds <= 0:
            raise ValueError("non-positive execution time")
        return self.flops / self.seconds / 1e6

    def add(self, label: str, seconds: float) -> None:
        self.breakdown[label] = self.breakdown.get(label, 0.0) + seconds


class CedarMachineModel:
    """The analytic Cedar: executes programs, reports seconds and MFLOPS."""

    def __init__(
        self,
        config: CedarConfig = DEFAULT_CONFIG,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.costs = cost_model or CostModel(config)
        # Same ambient-tracer rule as CedarMachine: explicit > tracing() scope.
        self.tracer = tracer if tracer is not None else current_tracer()

    # -- public API -----------------------------------------------------------

    def execute(
        self,
        program: Program,
        options: RuntimeOptions = DEFAULT_OPTIONS,
    ) -> ExecutionReport:
        """Parallel execution on the whole machine (or one cluster)."""
        clusters = 1 if options.single_cluster else self.config.num_clusters
        processors = clusters * self.config.ces_per_cluster
        report = ExecutionReport(
            program=program.name,
            seconds=0.0,
            processors=processors,
            flops=program.total_flops(),
        )
        trace = self.tracer.if_enabled() if self.tracer is not None else None
        for construct in program.body:
            seconds = self._time_construct(construct, options, clusters)
            if trace is not None:
                self._trace_construct(trace, program.name, construct,
                                      report.seconds, seconds)
            report.seconds += seconds
            report.add(self._label(construct), seconds)
        return report

    def _trace_construct(
        self, trace: Tracer, program: str, construct: Construct,
        start_seconds: float, seconds: float,
    ) -> None:
        """One cost-attribution span per timed construct.

        The analytic model has no event clock, so spans carry explicit times:
        the cursor of accumulated program seconds, converted to CE cycles so
        model and hardware traces share a time base.
        """
        label = self._label(construct)
        start = round(start_seconds / CE_CYCLE_SECONDS)
        end = round((start_seconds + seconds) / CE_CYCLE_SECONDS)
        trace.complete(
            "model", f"{program}.{label}", start, end,
            kind=type(construct).__name__, seconds=seconds,
        )
        trace.count("model", f"seconds[{label}]", seconds)
        trace.count("model", "constructs_timed")

    def execute_serial(self, program: Program) -> ExecutionReport:
        """Uniprocessor scalar execution (the speed-improvement baseline)."""
        report = ExecutionReport(
            program=program.name, seconds=0.0, processors=1,
            flops=program.total_flops(),
        )
        for construct in program.body:
            seconds = self._serial_seconds(construct)
            report.seconds += seconds
            report.add(self._label(construct), seconds)
        return report

    # -- parallel timing -------------------------------------------------------

    def _time_construct(
        self, construct: Construct, options: RuntimeOptions, clusters: int
    ) -> float:
        if isinstance(construct, SerialSection):
            return self._cycles_to_seconds(
                self._body_cycles(
                    construct.work, construct.placement, 1, options,
                    prefetchable=construct.prefetchable_fraction,
                )
            )
        if isinstance(construct, Doall):
            return self._cycles_to_seconds(
                self._doall_cycles(construct, options, clusters)
            )
        if isinstance(construct, Barrier):
            per = self.costs.barrier_cycles(construct.multicluster, clusters)
            return self._cycles_to_seconds(per * construct.count)
        if isinstance(construct, Reduction):
            return self._cycles_to_seconds(
                self.costs.reduction_cycles(construct.elements, options)
            )
        if isinstance(construct, IOSection):
            return self.costs.io_seconds(construct.bytes, construct.formatted)
        if isinstance(construct, DataMove):
            ces = clusters * self.config.ces_per_cluster
            return self._cycles_to_seconds(
                self.costs.move_cycles(construct.words, ces) / ces
            )
        if isinstance(construct, VirtualMemoryActivity):
            # TLB-refill storms only exist when extra clusters re-touch
            # pages first mapped by another cluster.
            return construct.seconds if clusters > 1 else 0.0
        raise ProgramError(f"model cannot time {construct!r}")

    def _doall_cycles(
        self, loop: Doall, options: RuntimeOptions, clusters: int
    ) -> float:
        ces_per_cluster = self.config.ces_per_cluster
        if loop.kind is LoopKind.CDOALL:
            workers = ces_per_cluster
        elif loop.kind is LoopKind.SDOALL:
            workers = clusters  # one iteration per cluster; CDOALL inside
        else:
            workers = clusters * ces_per_cluster
        workers = min(workers, loop.trip_count)

        startup = self.costs.loop_startup_cycles(loop.kind)
        fetch = 0.0
        if options.schedule is Schedule.SELF and loop.self_scheduled:
            fetch = self.costs.iteration_fetch_cycles(loop.kind, options)

        iterations_per_worker = -(-loop.trip_count // workers)  # ceil
        if loop.nested:
            inner = sum(
                self._nested_cycles(c, loop, options, clusters)
                for c in loop.body  # type: ignore[union-attr]
            )
            body_cycles = inner
        else:
            assert isinstance(loop.body, Work)
            active = workers if loop.kind is not LoopKind.SDOALL else (
                min(clusters * ces_per_cluster, loop.trip_count * ces_per_cluster)
            )
            body_cycles = self._body_cycles(
                loop.body, loop.placement, active, options,
                prefetchable=loop.prefetchable_fraction,
            )
        one_start = startup + iterations_per_worker * (fetch + body_cycles)
        return loop.instances * one_start

    def _nested_cycles(
        self, construct: Construct, outer: Doall, options: RuntimeOptions,
        clusters: int,
    ) -> float:
        """Time one construct inside an SDOALL iteration (one cluster)."""
        if isinstance(construct, Doall):
            if construct.kind is not LoopKind.CDOALL:
                raise ProgramError(
                    "only CDOALLs may nest inside an SDOALL "
                    f"(got {construct.kind})"
                )
            workers = min(self.config.ces_per_cluster, construct.trip_count)
            startup = self.costs.loop_startup_cycles(construct.kind)
            fetch = self.costs.iteration_fetch_cycles(construct.kind, options)
            iterations = -(-construct.trip_count // workers)
            assert isinstance(construct.body, Work)
            active = clusters * workers  # every cluster runs its own CDOALL
            body = self._body_cycles(
                construct.body, construct.placement, active, options,
                prefetchable=construct.prefetchable_fraction,
            )
            return startup + iterations * (fetch + body)
        if isinstance(construct, Work):
            return self._body_cycles(
                construct, outer.placement, clusters, options,
                prefetchable=outer.prefetchable_fraction,
            )
        if isinstance(construct, Barrier):
            return self.costs.barrier_cycles(construct.multicluster, clusters)
        raise ProgramError(f"cannot nest {construct!r} inside an SDOALL")

    def _body_cycles(
        self,
        work: Work,
        placement: Placement,
        active_ces: int,
        options: RuntimeOptions,
        prefetchable: float,
    ) -> float:
        compute = work.flops / self.costs.flops_per_cycle(
            work.vector_fraction, work.vector_length
        )
        memory_rate = self.costs.words_per_cycle(
            placement, active_ces, options, prefetchable,
            work.scalar_memory_fraction,
        )
        memory = work.memory_words / memory_rate
        # Vector memory streams overlap arithmetic; scalar portions don't,
        # which the blended rates already account for.
        return max(compute, memory)

    # -- serial timing -----------------------------------------------------------

    def _serial_seconds(self, construct: Construct) -> float:
        if isinstance(construct, SerialSection):
            return self._cycles_to_seconds(self._serial_work(construct.work))
        if isinstance(construct, Doall):
            if construct.nested:
                inner = sum(
                    self._serial_construct_cycles(c)
                    for c in construct.body  # type: ignore[union-attr]
                )
            else:
                assert isinstance(construct.body, Work)
                inner = self._serial_work(construct.body)
            return self._cycles_to_seconds(
                construct.instances * construct.trip_count * inner
            )
        if isinstance(construct, (Barrier, Reduction, VirtualMemoryActivity)):
            return 0.0
        if isinstance(construct, IOSection):
            return self.costs.io_seconds(construct.bytes, construct.formatted)
        if isinstance(construct, DataMove):
            return 0.0  # no explicit moves in the serial memory layout
        raise ProgramError(f"model cannot time {construct!r}")

    def _serial_construct_cycles(self, construct: Construct) -> float:
        if isinstance(construct, Doall):
            assert isinstance(construct.body, Work)
            return (
                construct.instances
                * construct.trip_count
                * self._serial_work(construct.body)
            )
        if isinstance(construct, Work):
            return self._serial_work(construct)
        if isinstance(construct, (Barrier, Reduction)):
            return 0.0
        raise ProgramError(f"cannot serially time nested {construct!r}")

    def _serial_work(self, work: Work) -> float:
        """Scalar-mode execution: no vector unit, data in cluster memory."""
        compute = work.flops / self.costs.flops_per_cycle(
            0.0, work.vector_length, scalar_only=True
        )
        memory = work.memory_words / self.costs.memory_rates(1).cluster_scalar
        return max(compute, memory)

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _cycles_to_seconds(cycles: float) -> float:
        return cycles * CE_CYCLE_SECONDS

    @staticmethod
    def _label(construct: Construct) -> str:
        label = getattr(construct, "label", "")
        return label or type(construct).__name__.lower()
