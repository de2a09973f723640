"""Machine-wide instrumentation: counters, spans, and trace export.

The simulator-side generalization of the paper's external performance-
monitoring hardware (Section 2): one :class:`Tracer` event bus per machine
collects per-component counters, utilization spans, and instants into a
flat columnar record store, and two exporters turn a finished run into
either a plain-text utilization report or Chrome trace-event JSON
(``chrome://tracing`` / Perfetto).

* :mod:`repro.trace.tracer` -- the bus, counter sets, spans, the ambient
  ``tracing()`` context used by ``cedar-repro trace``.
* :mod:`repro.trace.columnar` -- the ring-buffer column store, the string
  interning table, and the zero-copy :class:`TraceSnapshot` wire format.
* :mod:`repro.trace.merge` -- :class:`TraceMerger`, splicing per-worker
  buffers into one deterministic timeline.
* :mod:`repro.trace.export` -- Chrome trace-event and text-report exporters
  (accept a live tracer or any snapshot).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.trace.columnar": ["ColumnarStore", "StringTable", "TraceSnapshot"],
        "repro.trace.merge": ["TraceMerger"],
        "repro.trace.tracer": [
            "CounterSample",
            "Instant",
            "Span",
            "Tracer",
            "current_tracer",
            "tracing",
        ],
        "repro.trace.export": [
            "chrome_trace_events",
            "chrome_trace_json",
            "utilization_report",
            "write_chrome_trace",
        ],
    },
)
