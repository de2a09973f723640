"""Performance-monitoring hardware (Section 2, "Performance monitoring").

Cedar relies on external hardware that collects time-stamped event traces
and histograms of hardware signals: "The event tracers can each collect 1M
events and the histogrammers have 64K 32-bit counters.  These can be
cascaded to capture more events."  Programs can also post software events.

The simulator exposes the same two instruments.  Table 2's first-word
latency and interarrival measurements are taken exactly as the paper
describes: by recording when an address leaves a prefetch unit for the
forward network and when each datum returns via the reverse network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import MonitorConfig
from repro.errors import MonitorError


@dataclass(frozen=True)
class TraceEvent:
    """One time-stamped event captured by a tracer."""

    cycle: int
    signal: str
    value: int = 0


class EventTracer:
    """A hardware event tracer: bounded, cascadable capture of events."""

    def __init__(self, config: MonitorConfig, cascade: int = 1) -> None:
        if cascade < 1:
            raise MonitorError(f"cascade factor must be >= 1, got {cascade}")
        self.capacity = config.tracer_capacity_events * cascade
        self._events: List[TraceEvent] = []
        self.dropped = 0
        self._armed = False

    def start(self) -> None:
        self._armed = True

    def stop(self) -> None:
        self._armed = False

    @property
    def full(self) -> bool:
        """True when the capture buffer is at capacity (posts will drop).

        Distinguishes "stopped" (not armed, drops silently by design) from
        "full" (armed but out of capacity; cascade more tracers).
        """
        return len(self._events) >= self.capacity

    def post(self, cycle: int, signal: str, value: int = 0) -> None:
        """Capture an event (hardware signal or software-posted)."""
        if not self._armed:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(TraceEvent(cycle=cycle, signal=signal, value=value))

    def events(self, signal: Optional[str] = None) -> List[TraceEvent]:
        """Captured events, optionally filtered by signal name."""
        if signal is None:
            return list(self._events)
        return [e for e in self._events if e.signal == signal]

    def __len__(self) -> int:
        return len(self._events)


class Histogrammer:
    """64K 32-bit counters indexed by a binned signal value."""

    _COUNTER_MAX = 2**32 - 1

    def __init__(self, config: MonitorConfig, bin_width: int = 1) -> None:
        if bin_width < 1:
            raise MonitorError(f"bin width must be >= 1, got {bin_width}")
        self.num_counters = config.histogrammer_counters
        self.bin_width = bin_width
        self._counters: Dict[int, int] = {}

    def record(self, value: int) -> None:
        """Increment the counter for ``value``'s bin (saturating)."""
        if value < 0:
            raise MonitorError(f"histogram values are non-negative, got {value}")
        bin_index = value // self.bin_width
        if bin_index >= self.num_counters:
            return  # past the last counter: the hardware has no bin for it
        current = self._counters.get(bin_index, 0)
        if current < self._COUNTER_MAX:
            self._counters[bin_index] = current + 1

    def counts(self) -> Dict[int, int]:
        """Non-zero (bin index -> count) pairs."""
        return dict(self._counters)

    @property
    def total(self) -> int:
        return sum(self._counters.values())

    def mean(self) -> float:
        """Mean of the recorded values, using bin midpoints for width > 1."""
        if not self._counters:
            raise MonitorError("histogram is empty")
        weighted = sum(
            (index * self.bin_width + (self.bin_width - 1) / 2) * count
            for index, count in self._counters.items()
        )
        return weighted / self.total

    def percentile(self, fraction: float) -> int:
        """Smallest bin value at or above the given cumulative fraction."""
        if not 0 < fraction <= 1:
            raise MonitorError(f"fraction must be in (0, 1], got {fraction}")
        if not self._counters:
            raise MonitorError("histogram is empty")
        target = fraction * self.total
        cumulative = 0
        for index in sorted(self._counters):
            cumulative += self._counters[index]
            if cumulative >= target:
                return index * self.bin_width
        raise AssertionError("unreachable: cumulative covers total")


class PerformanceMonitor:
    """The workstation-side collection of tracers and histogrammers.

    When connected to the machine's trace bus (:meth:`connect`), the monitor
    is a *consumer* of bus signals, exactly as the real hardware monitors
    were cabled to machine signals: ``prefetch.first_word_latency`` and
    ``prefetch.interarrival`` feed the Table 2 histogrammers, and
    ``software.event`` feeds the software event tracer.  Standalone (no bus)
    operation still works for unit use.
    """

    #: Bus signals the monitor's instruments subscribe to.
    FIRST_WORD_SIGNAL = "prefetch.first_word_latency"
    INTERARRIVAL_SIGNAL = "prefetch.interarrival"
    SOFTWARE_SIGNAL = "software.event"
    #: Announced on the bus by :meth:`connect`, carrying the monitor itself,
    #: so post-run collectors can find monitors built deep inside drivers.
    CONNECTED_SIGNAL = "monitor.connected"

    def __init__(self, config: MonitorConfig) -> None:
        self.config = config
        self._tracers: Dict[str, EventTracer] = {}
        self._histograms: Dict[str, Histogrammer] = {}
        self._bus = None

    def connect(self, bus) -> None:
        """Cable this monitor's instruments onto a trace-bus's signals.

        Args:
            bus: A :class:`repro.trace.Tracer`; its publish/subscribe side
                always delivers, so the Table 2 measurements are identical
                whether or not timeline recording is enabled.
        """
        self._bus = bus
        self._cable(bus, self.FIRST_WORD_SIGNAL, "first_word_latency")
        self._cable(bus, self.INTERARRIVAL_SIGNAL, "interarrival")
        bus.subscribe(
            self.SOFTWARE_SIGNAL,
            lambda event: self.tracer("software").post(*event),
        )
        bus.publish(self.CONNECTED_SIGNAL, self)

    def _cable(self, bus, signal: str, name: str) -> None:
        """Feed ``signal`` into histogrammer ``name``.

        The first value creates the histogrammer (one that never records is
        never created, so collectors report no empty series for it) and
        swaps its ``record`` onto the bus in place of this first handler,
        so every later value goes straight to ``record``.
        """

        def first(value: int) -> None:
            histogram = self.histogram(name)
            bus.resubscribe(signal, first, histogram.record)
            histogram.record(value)

        bus.subscribe(signal, first)

    def tracer(self, name: str, cascade: int = 1) -> EventTracer:
        """Get or create a named event tracer."""
        if name not in self._tracers:
            self._tracers[name] = EventTracer(self.config, cascade=cascade)
        return self._tracers[name]

    def histogram(self, name: str, bin_width: int = 1) -> Histogrammer:
        """Get or create a named histogrammer."""
        if name not in self._histograms:
            self._histograms[name] = Histogrammer(self.config, bin_width=bin_width)
        return self._histograms[name]

    def record_prefetch(self, handle) -> None:
        """File one completed prefetch's Table 2 metrics.

        When a bus is connected the measurements travel as signals (which the
        monitor's own subscriptions turn back into histogram records, and
        which any other bus consumer can also observe); standalone monitors
        record directly.

        Args:
            handle: A completed :class:`repro.hardware.prefetch.PrefetchHandle`.
        """
        if self._bus is not None:
            self._bus.publish(self.FIRST_WORD_SIGNAL, handle.first_word_latency())
            for gap in handle.interarrival_times():
                self._bus.publish(self.INTERARRIVAL_SIGNAL, gap)
            return
        self.histogram("first_word_latency").record(handle.first_word_latency())
        interarrival = self.histogram("interarrival")
        for gap in handle.interarrival_times():
            interarrival.record(gap)

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """{name: {count, mean, p90, max}} for every histogrammer.

        Empty histograms report only their zero count, so collectors can
        drain a monitor that never saw a completed prefetch.
        """
        summaries: Dict[str, Dict[str, float]] = {}
        for name, histogram in sorted(self._histograms.items()):
            if histogram.total == 0:
                summaries[name] = {"count": 0}
                continue
            max_bin = max(histogram.counts())
            summaries[name] = {
                "count": histogram.total,
                "mean": histogram.mean(),
                "p90": float(histogram.percentile(0.9)),
                "max": float(max_bin * histogram.bin_width),
            }
        return summaries

    def tracer_summaries(self) -> Dict[str, Dict[str, int]]:
        """{name: {events, dropped}} for every hardware event tracer."""
        return {
            name: {"events": len(tracer), "dropped": tracer.dropped}
            for name, tracer in sorted(self._tracers.items())
        }

    def latency_summary(self) -> Tuple[float, float]:
        """(mean first-word latency, mean interarrival) in cycles.

        Raises:
            MonitorError: Naming the histogram(s) with no samples, instead of
                the bare "histogram is empty" the instruments themselves give.
        """
        missing = [
            name
            for name in ("first_word_latency", "interarrival")
            if self.histogram(name).total == 0
        ]
        if missing:
            raise MonitorError(
                "latency_summary() needs samples in histogram(s) "
                + ", ".join(repr(name) for name in missing)
                + "; record at least one completed prefetch "
                "(record_prefetch) of length >= 2 first"
            )
        return (
            self.histogram("first_word_latency").mean(),
            self.histogram("interarrival").mean(),
        )
