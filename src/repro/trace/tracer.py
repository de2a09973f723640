"""The machine-wide instrumentation bus.

The paper's methodology rests on external hardware performance monitors:
event tracers and histogrammers cascaded across the machine, fed by hardware
signals from every subsystem (Section 2, "Performance monitoring").  This
module is the simulator-side generalization of that cabling: a single
:class:`Tracer` *bus* that every hardware component (crossbars, networks,
memory modules, caches, prefetch units, the concurrency control bus, the
synchronization processors) and the analytic machine model report into.

Three record kinds are collected:

* **counters** -- monotonically accumulated totals per (component, name),
  optionally with a bounded sampled timeline for utilization plots;
* **spans** -- [start, end) intervals (a memory module servicing a request,
  a prefetch in flight, one cost term of the analytic model);
* **instants** -- point events (software-posted events, bus signals).

Like the paper's 1M-event tracers, the record store is bounded
(``max_records``); overflowing records are counted in :attr:`Tracer.dropped`
rather than silently lost, while counter *totals* and busy-cycle aggregates
stay exact regardless.

``max_records=0`` makes a **counters-only** tracer for callers that read
aggregates but never the timeline (each ``sweep`` point's
:func:`~repro.builder.workload.measure_spec`, the partition runtime's
events telemetry): counter totals, gauges, busy cycles, span counts and
elapsed cycles stay exact, but no span, instant or sample is appended, so
the record store does no interning and no ring writes.  Callers that do
read records (``--trace-out``, ``trace``, ``bench``, serve's progress
ring) keep a positive bound.

Records live in the **columnar store** (:mod:`repro.trace.columnar`):
flat preallocated ring-buffer columns with string-interned ids,
oldest-first eviction at capacity, and zero-copy :meth:`Tracer.snapshot`
export, mergeable across worker processes.

Zero overhead when disabled: every recording entry point starts with an
``enabled`` check, and hot components hold ``tracer.if_enabled()`` -- ``None``
when tracing is off -- so the per-event cost of a disabled tracer is a single
``is not None`` test.

The bus side (:meth:`Tracer.publish` / :meth:`Tracer.subscribe`) always
delivers, independent of ``enabled``: the paper-faithful
:class:`~repro.hardware.monitor.PerformanceMonitor` consumes its Table 2
signals through subscriptions, and those measurements must not depend on
whether anyone is also recording a timeline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import TraceError
from repro.trace.columnar import KINDS, ColumnarStore, TraceSnapshot

Clock = Callable[[], int]

#: Default bound on stored records, matching the hardware tracers' 1M events.
DEFAULT_MAX_RECORDS = 1_000_000

@dataclass(frozen=True)
class Span:
    """One [start, end) interval on a component's timeline."""

    component: str
    name: str
    epoch: int
    start: int
    end: int
    depth: int = 0
    args: Optional[Dict[str, object]] = None

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A point event on a component's timeline."""

    component: str
    name: str
    epoch: int
    cycle: int
    value: object = None


@dataclass(frozen=True)
class CounterSample:
    """One sampled point of a counter's timeline."""

    component: str
    name: str
    epoch: int
    cycle: int
    value: float


class CounterSet:
    """Named counters belonging to one component.

    Totals are exact and unbounded, held in a flat ``values`` list indexed
    by interned :meth:`slot` ids -- hot call sites prebind a slot once and
    bump ``counters.values[slot] += delta`` with no per-event hashing.
    Sampled timeline points go through the owning tracer's bounded record
    store; the names of sampled counters (gauges, whose total is the last
    value set) are kept in ``sampled``.
    """

    __slots__ = ("component", "_tracer", "_index", "_names", "values", "sampled")

    def __init__(self, component: str, tracer: "Tracer") -> None:
        self.component = component
        self._tracer = tracer
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self.values: List[float] = []
        self.sampled: Set[str] = set()

    def slot(self, name: str) -> int:
        """Intern counter ``name``, returning its index into ``values``.

        Slots are created on first use so never-bumped counters stay
        absent from :meth:`totals` (the reporting contract the bench
        baselines pin down).
        """
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self._names)
            self._names.append(name)
            self.values.append(0)
        return index

    def add(self, name: str, delta: float = 1) -> float:
        """Accumulate ``delta`` into counter ``name``; returns the new total."""
        index = self.slot(name)
        total = self.values[index] + delta
        self.values[index] = total
        return total

    def sample(self, name: str, value: float, cycle: int) -> None:
        """Set counter ``name`` to ``value`` and record a timeline point."""
        self.values[self.slot(name)] = value
        self.sampled.add(name)
        self._tracer._record_sample(self.component, name, cycle, value)

    def get(self, name: str) -> float:
        index = self._index.get(name)
        return self.values[index] if index is not None else 0

    def __len__(self) -> int:
        return len(self._names)

    @property
    def totals(self) -> Dict[str, float]:
        """{counter: total}, in first-use order (a fresh dict per call)."""
        return dict(zip(self._names, self.values))


class Tracer:
    """The instrumentation event bus attached to a machine's clock.

    One tracer can observe several consecutive machine instances (e.g. the
    twelve kernel runs behind Table 2): each :meth:`set_clock` call opens a
    new *epoch*, so runs whose engines all start at cycle 0 stay separable
    in exports (one trace "process" per epoch).
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[Clock] = None,
        max_records: int = DEFAULT_MAX_RECORDS,
    ) -> None:
        if max_records < 0:
            raise TraceError(f"max_records must be >= 0, got {max_records}")
        self.enabled = enabled
        self.clock = clock
        self.max_records = max_records
        #: False for a counters-only tracer: aggregates stay exact, but no
        #: span, instant or sample is appended to a record store.
        self.keeps_records = max_records > 0
        self.epoch = 0
        self._store = ColumnarStore(max_records) if max_records else _NoRecords()
        self._clock_was_set = clock is not None
        self._counter_sets: Dict[str, CounterSet] = {}
        self._span_stacks: Dict[str, List[Tuple[str, int, Optional[Dict[str, object]]]]] = {}
        self._subscribers: Dict[str, List[Callable[[object], None]]] = {}
        self._busy: Dict[str, int] = {}
        self._span_counts: Dict[str, int] = {}
        self._elapsed: Dict[int, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def if_enabled(self) -> Optional["Tracer"]:
        """``self`` when recording, else ``None`` (the hot-path guard)."""
        return self if self.enabled else None

    def set_clock(self, clock: Clock) -> None:
        """Attach to a (new) machine clock, opening a fresh epoch."""
        if self._clock_was_set:
            self.epoch += 1
        self._clock_was_set = True
        self.clock = clock

    def now(self) -> int:
        if self.clock is None:
            raise TraceError("tracer has no clock; call set_clock() first")
        return self.clock()

    # -- counters ----------------------------------------------------------

    def counters(self, component: str) -> CounterSet:
        """Get or create the :class:`CounterSet` of ``component``."""
        counters = self._counter_sets.get(component)
        if counters is None:
            counters = self._counter_sets[component] = CounterSet(component, self)
        return counters

    def count(self, component: str, name: str, delta: float = 1) -> None:
        """Accumulate into a counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.counters(component).add(name, delta)

    def sample(self, component: str, name: str, value: float, cycle: int) -> None:
        """Record a counter timeline point (no-op when disabled)."""
        if not self.enabled:
            return
        self.counters(component).sample(name, value, cycle)

    def counter_totals(self) -> Dict[str, Dict[str, float]]:
        """{component: {counter: total}} for every non-empty counter set."""
        return {
            component: counters.totals
            for component, counters in sorted(self._counter_sets.items())
            if len(counters)
        }

    # -- spans -------------------------------------------------------------

    def begin(self, component: str, name: str, **args: object) -> None:
        """Open a (nestable) span on ``component`` at the current clock."""
        if not self.enabled:
            return
        stack = self._span_stacks.setdefault(component, [])
        stack.append((name, self.now(), args or None))

    def end(self, component: str) -> None:
        """Close the innermost open span of ``component``."""
        if not self.enabled:
            return
        stack = self._span_stacks.get(component)
        if not stack:
            raise TraceError(f"end() without begin() on component {component!r}")
        name, start, args = stack.pop()
        self._record_span(component, name, start, self.now(), len(stack), args)

    @contextmanager
    def span(self, component: str, name: str, **args: object) -> Iterator[None]:
        """``with tracer.span("machine", "run_kernel"): ...``"""
        self.begin(component, name, **args)
        try:
            yield
        finally:
            self.end(component)

    def complete(
        self, component: str, name: str, start: int, end: int, **args: object
    ) -> None:
        """Record an already-timed interval (no clock or stack involved).

        This is the form hardware components use: they know their service
        intervals exactly and may have many in flight per component, where a
        begin/end stack would mis-nest.
        """
        if not self.enabled:
            return
        if end < start:
            raise TraceError(f"span {component}/{name} ends before it starts")
        self._record_span(component, name, start, end, 0, args or None)

    def open_span_names(self, component: Optional[str] = None) -> List[str]:
        """Names of the currently open spans, outermost first.

        With ``component`` given, only that component's stack; otherwise
        every open span across the machine, prefixed with its component.
        The sanitizer embeds this context in :class:`SanitizerError`s so a
        violation reports *what the machine was doing* when it fired.
        """
        if component is not None:
            return [name for name, _, _ in self._span_stacks.get(component, ())]
        names: List[str] = []
        for comp in sorted(self._span_stacks):
            for name, _, _ in self._span_stacks[comp]:
                names.append(f"{comp}:{name}")
        return names

    # -- instants ----------------------------------------------------------

    def instant(
        self, component: str, name: str, cycle: Optional[int] = None, value: object = None
    ) -> None:
        """Record a point event (no-op when disabled)."""
        if not self.enabled:
            return
        if cycle is None:
            cycle = self.now() if self.clock is not None else 0
        self._note_cycle(cycle)
        if self.keeps_records:
            self._store.add_instant(component, name, self.epoch, cycle, value)

    # -- the bus (always on) -----------------------------------------------

    def subscribe(self, signal: str, handler: Callable[[object], None]) -> None:
        """Deliver every published ``signal`` value to ``handler``."""
        self._subscribers.setdefault(signal, []).append(handler)

    def resubscribe(
        self, signal: str, old: Callable[[object], None],
        new: Callable[[object], None],
    ) -> None:
        """Put ``new`` in ``old``'s place among ``signal``'s subscribers.

        Delivery order is kept; safe from inside a delivery of ``signal``.
        """
        handlers = self._subscribers[signal]
        handlers[handlers.index(old)] = new

    def publish(self, signal: str, value: object = None) -> None:
        """Deliver ``value`` to subscribers; also recorded when enabled."""
        handlers = self._subscribers.get(signal)
        if handlers:
            for handler in handlers:
                handler(value)
        if self.enabled:
            self.instant("bus", signal, value=value)

    # -- aggregates for reporting -------------------------------------------

    def busy_cycles(self) -> Dict[str, int]:
        """Total span cycles per component (exact, unaffected by drops)."""
        return dict(self._busy)

    def span_counts(self) -> Dict[str, int]:
        return dict(self._span_counts)

    def elapsed_by_epoch(self) -> Dict[int, int]:
        """Largest cycle observed per epoch (the utilization denominator)."""
        return dict(self._elapsed)

    @property
    def num_records(self) -> int:
        return self._store.num_records

    @property
    def dropped(self) -> int:
        return self._store.dropped

    @property
    def records_seen(self) -> int:
        """Every record ever appended, including those since dropped."""
        return self._store.total_appended

    @property
    def buffer_bytes(self) -> int:
        """Bytes held by the record store's columns."""
        return self._store.buffer_bytes

    def record_counts(self) -> Dict[str, int]:
        """Retained records per kind: {"spans", "instants", "samples"}."""
        return self._store.counts()

    @property
    def interned_strings(self) -> int:
        """Distinct component/name strings interned."""
        return len(getattr(self._store, "inner", self._store).strings)

    # -- record views --------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Stored spans as objects (materialized per access)."""
        snap = self._store.snapshot()
        strings = snap.strings
        component, name, epoch, start, end, depth = snap.columns(
            "spans", "component", "name", "epoch", "start", "end", "depth"
        )
        args = snap.column("spans", "args")
        return [
            Span(strings[c], strings[n], e, s, f, d, a)
            for c, n, e, s, f, d, a
            in zip(component, name, epoch, start, end, depth, args)
        ]

    @property
    def instants(self) -> List[Instant]:
        snap = self._store.snapshot()
        strings = snap.strings
        component, name, epoch, cycle, value = snap.columns(
            "instants", "component", "name", "epoch", "cycle", "value"
        )
        return [
            Instant(strings[c], strings[n], e, y, v)
            for c, n, e, y, v in zip(component, name, epoch, cycle, value)
        ]

    @property
    def samples(self) -> List[CounterSample]:
        snap = self._store.snapshot()
        strings = snap.strings
        component, name, epoch, cycle, value = snap.columns(
            "samples", "component", "name", "epoch", "cycle", "value"
        )
        return [
            CounterSample(strings[c], strings[n], e, y, v)
            for c, n, e, y, v in zip(component, name, epoch, cycle, value)
        ]

    # -- internals -----------------------------------------------------------

    def _record_span(
        self,
        component: str,
        name: str,
        start: int,
        end: int,
        depth: int,
        args: Optional[Dict[str, object]],
    ) -> None:
        self._busy[component] = self._busy.get(component, 0) + (end - start)
        self._span_counts[component] = self._span_counts.get(component, 0) + 1
        self._note_cycle(end)
        if self.keeps_records:
            self._store.add_span(
                component, name, self.epoch, start, end, depth, args
            )

    def _record_sample(
        self, component: str, name: str, cycle: int, value: float
    ) -> None:
        self._note_cycle(cycle)
        if self.keeps_records:
            self._store.add_sample(component, name, self.epoch, cycle, value)

    def _note_cycle(self, cycle: int) -> None:
        if cycle > self._elapsed.get(self.epoch, 0):
            self._elapsed[self.epoch] = cycle

    # -- snapshot / overhead -------------------------------------------------

    def snapshot(self) -> TraceSnapshot:
        """Zero-copy columnar view of this tracer's records + aggregates.

        The exporters (:mod:`repro.trace.export`) and the cross-worker
        :class:`~repro.trace.merge.TraceMerger` both consume snapshots, so
        a live tracer, a deserialized per-worker buffer, and a merged
        timeline all render through one code path.
        """
        snap = self._store.snapshot()
        snap.counter_totals = self.counter_totals()
        snap.sampled_counters = {
            component: sorted(counters.sampled)
            for component, counters in sorted(self._counter_sets.items())
            if counters.sampled
        }
        snap.busy_cycles = dict(self._busy)
        snap.span_counts = dict(self._span_counts)
        snap.elapsed_by_epoch = dict(self._elapsed)
        snap.epochs = self.epoch + 1
        return snap

    def overhead_estimate(self, wall_seconds: float) -> Dict[str, float]:
        """Estimated wall-clock share spent appending trace records.

        The per-record cost of this tracer's store class is calibrated
        once per process on a throwaway store (outside any timed region)
        and multiplied by the number of records appended -- an estimate
        that moves with the store implementation.  perfbench reports it
        as ``trace.estimate_ratio`` next to its measured
        ``trace.overhead_ratio``; nothing in this package calls it.
        """
        records = self._store.total_appended
        cost = (
            _per_record_cost(type(getattr(self._store, "inner", self._store)))
            if self.keeps_records
            else 0.0
        )
        overhead = records * cost
        return {
            "records": float(records),
            "per_record_ns": round(cost * 1e9, 1),
            "overhead_seconds": overhead,
            "ratio": (overhead / wall_seconds) if wall_seconds > 0 else 0.0,
        }


class _NoRecords:
    """The record store of a counters-only tracer (``max_records=0``).

    The tracer never appends to it: it interns no string, holds no record
    and reports zero everywhere, and its snapshot has empty columns.
    """

    max_records = num_records = total_appended = dropped = buffer_bytes = 0
    strings = ()

    def counts(self) -> Dict[str, int]:
        return dict.fromkeys(KINDS, 0)

    def snapshot(self) -> TraceSnapshot:
        return TraceSnapshot()


#: Per-process cache of calibrated per-record append cost, by store class.
_PER_RECORD_COST: Dict[type, float] = {}

#: Synthetic appends per calibration run.
_CALIBRATION_RECORDS = 20_000


def _per_record_cost(store_class: type) -> float:
    cached = _PER_RECORD_COST.get(store_class)
    if cached is not None:
        return cached
    store = store_class(_CALIBRATION_RECORDS)
    began = time.perf_counter()
    for cycle in range(_CALIBRATION_RECORDS):
        store.add_span("calibration", "append", 0, cycle, cycle + 1, 0, None)
    cost = (time.perf_counter() - began) / _CALIBRATION_RECORDS
    _PER_RECORD_COST[store_class] = cost
    return cost


# ---------------------------------------------------------------------------
# Ambient tracer: lets `cedar-repro trace` observe experiments whose drivers
# build machines internally, without threading a tracer through every call.
# ---------------------------------------------------------------------------

_ACTIVE: List[Tracer] = []


def current_tracer() -> Optional[Tracer]:
    """The innermost tracer installed by :func:`tracing`, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the enclosed block.

    Every :class:`~repro.hardware.machine.CedarMachine` and
    :class:`~repro.model.machine_model.CedarMachineModel` constructed inside
    the block attaches to it by default.
    """
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
