"""Structured metrics on top of the trace bus, and the bench flight recorder.

* :mod:`repro.metrics.registry` -- labeled counters, gauges, log-bucketed
  histograms in a :class:`MetricsRegistry`.
* :mod:`repro.metrics.collector` -- drain finished-run tracers and
  performance monitors into a registry.
* :mod:`repro.metrics.export` -- Prometheus text exposition (+ parser) and
  JSONL exporters.
* :mod:`repro.metrics.headline` -- the per-experiment declared metrics
  (measured vs paper targets).
* :mod:`repro.metrics.bench` -- ``BENCH_<n>.json`` snapshots and the
  regression comparator behind ``cedar-repro bench``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.registry": ["MetricsRegistry", "flat_series_name"],
        "repro.metrics.collector": [
            "MonitorCatcher",
            "collect_monitor",
            "collect_tracer",
        ],
        "repro.metrics.export": [
            "jsonl_lines",
            "parse_prometheus",
            "prometheus_text",
            "write_jsonl",
        ],
    },
)
