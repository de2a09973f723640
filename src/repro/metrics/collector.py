"""Drain finished-run instrumentation into a :class:`MetricsRegistry`.

Three sources, mirroring the paper's three measurement paths:

* the trace bus (:class:`repro.trace.Tracer`): counter totals, span
  busy-cycles, elapsed cycles, record/drop accounting;
* the paper-faithful :class:`repro.hardware.monitor.PerformanceMonitor`
  histogrammers (Table 2's first-word latency and interarrival);
* arbitrary driver-side values (fidelity numbers, wall-clock), which the
  caller writes straight into the registry.

Collection is strictly post-run and read-only: nothing here changes what a
tracer or monitor recorded, and a *disabled* tracer (no timeline) simply
contributes nothing -- the registry never requires a recording tracer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.monitor import PerformanceMonitor
from repro.metrics.registry import MetricsRegistry
from repro.trace.tracer import Tracer


def collect_tracer(registry: MetricsRegistry, tracer: Tracer) -> None:
    """Fold one tracer's exact aggregates into ``registry``.

    Counter totals become ``sim_counter_total`` series labeled by component
    and counter name; span busy-cycles and counts become per-component
    gauges; elapsed cycles, record and drop counts describe the run itself.
    A disabled tracer holds no aggregates and contributes nothing.
    """
    for component, counters in tracer.counter_totals().items():
        for name, value in counters.items():
            registry.counter(
                "sim_counter_total",
                {"component": component, "counter": name},
                help="trace-bus counter totals per component",
            ).inc(value)
    span_counts = tracer.span_counts()
    for component, cycles in sorted(tracer.busy_cycles().items()):
        registry.gauge(
            "sim_busy_cycles",
            {"component": component},
            help="span busy-cycles per component",
        ).set(cycles)
        registry.gauge(
            "sim_span_count",
            {"component": component},
            help="spans recorded per component",
        ).set(span_counts.get(component, 0))
    elapsed = tracer.elapsed_by_epoch()
    if elapsed:
        registry.gauge(
            "sim_wall_cycles",
            help="sum of per-epoch elapsed cycles across machine runs",
        ).set(sum(elapsed.values()))
        registry.gauge(
            "sim_machine_runs", help="tracer epochs (machine instances)"
        ).set(len(elapsed))
    if tracer.num_records or tracer.dropped:
        registry.gauge(
            "sim_trace_records", help="timeline records retained"
        ).set(tracer.num_records)
        registry.gauge(
            "sim_trace_dropped", help="timeline records dropped at capacity"
        ).set(tracer.dropped)
        for kind, count in sorted(tracer.record_counts().items()):
            registry.gauge(
                "sim_trace_kind_records",
                {"kind": kind},
                help="timeline records retained per record kind",
            ).set(count)
        registry.gauge(
            "sim_trace_buffer_bytes",
            help="record-store bytes (columnar ring capacity)",
        ).set(tracer.buffer_bytes)
        registry.gauge(
            "sim_trace_interned_strings",
            help="distinct component/name strings in the interning table",
        ).set(tracer.interned_strings)


def collect_monitor(
    registry: MetricsRegistry,
    monitor: PerformanceMonitor,
    labels: Optional[Dict[str, str]] = None,
) -> None:
    """Fold one performance monitor's instruments into ``registry``.

    Each non-empty histogrammer contributes count/mean/p90/max gauges
    labeled with the histogram name; event tracers contribute captured and
    dropped event counts.
    """
    base = dict(labels or {})
    for name, summary in monitor.histogram_summaries().items():
        series = dict(base, histogram=name)
        registry.gauge(
            "monitor_histogram_count", series,
            help="samples captured per hardware histogrammer",
        ).set(summary["count"])
        if summary["count"]:
            registry.gauge(
                "monitor_histogram_mean", series,
                help="mean of each hardware histogrammer",
            ).set(summary["mean"])
            registry.gauge(
                "monitor_histogram_p90", series,
                help="90th-percentile bin value per histogrammer",
            ).set(summary["p90"])
            registry.gauge(
                "monitor_histogram_max", series,
                help="largest populated bin value per histogrammer",
            ).set(summary["max"])
    for name, counts in monitor.tracer_summaries().items():
        series = dict(base, tracer=name)
        registry.gauge(
            "monitor_tracer_events", series,
            help="events captured per hardware event tracer",
        ).set(counts["events"])
        registry.gauge(
            "monitor_tracer_dropped", series,
            help="events dropped per hardware event tracer",
        ).set(counts["dropped"])


class MonitorCatcher:
    """Collects every :class:`PerformanceMonitor` that connects to a bus.

    Experiment drivers build machines (and their monitors) internally; the
    bench harness subscribes this catcher to the ambient tracer *before*
    the run, then drains each caught monitor afterwards.  Connection
    announcements ride the always-on publish/subscribe side of the bus, so
    catching works even when timeline recording is disabled.
    """

    def __init__(self, bus: Tracer) -> None:
        self.monitors: List[PerformanceMonitor] = []
        bus.subscribe(PerformanceMonitor.CONNECTED_SIGNAL, self._on_connect)

    def _on_connect(self, monitor: object) -> None:
        if isinstance(monitor, PerformanceMonitor):
            self.monitors.append(monitor)

    def collect_into(self, registry: MetricsRegistry) -> int:
        """Drain all caught monitors; returns how many were drained."""
        for index, monitor in enumerate(self.monitors):
            collect_monitor(registry, monitor, {"monitor": str(index)})
        return len(self.monitors)
