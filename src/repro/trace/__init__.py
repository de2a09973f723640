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

from repro.trace.columnar import ColumnarStore, StringTable, TraceSnapshot
from repro.trace.merge import TraceMerger
from repro.trace.tracer import (
    CounterSample,
    CounterSet,
    Instant,
    Span,
    Tracer,
    current_tracer,
    tracing,
)
from repro.trace.export import (
    chrome_trace_events,
    chrome_trace_json,
    utilization_report,
    write_chrome_trace,
)

__all__ = [
    "ColumnarStore",
    "CounterSample",
    "CounterSet",
    "Instant",
    "Span",
    "StringTable",
    "TraceMerger",
    "TraceSnapshot",
    "Tracer",
    "current_tracer",
    "tracing",
    "chrome_trace_events",
    "chrome_trace_json",
    "utilization_report",
    "write_chrome_trace",
]
