"""Exporters for trace-bus data.

Two output formats, mirroring the paper's workstation-side analysis flow
("software tools ... move the data collected by the performance hardware to
workstations for analysis", Section 2):

* :func:`chrome_trace_events` / :func:`chrome_trace_json` -- the Chrome
  trace-event format (the JSON ``chrome://tracing`` and Perfetto load):
  spans become ``"X"`` complete events, counter samples become ``"C"``
  counter events, instants become ``"i"`` events.  Each tracer epoch (one
  machine instance) is a separate pid with named component tids.
* :func:`utilization_report` -- a plain-text per-component utilization and
  counter summary, grouped by top-level component (``memory.m07`` rolls up
  under ``memory``).

Every exporter accepts either a live :class:`~repro.trace.tracer.Tracer`
or a :class:`~repro.trace.columnar.TraceSnapshot` (a zero-copy view, a
deserialized per-worker buffer, or a
:class:`~repro.trace.merge.TraceMerger` output) and renders through one
columnar code path -- which is what makes a live tracer, a reloaded
buffer, and ``--jobs N`` merges byte-identical in export.

Timestamps are emitted in microseconds (one CE cycle = 170 ns = 0.17 us).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple, Union

from repro.config import CE_CYCLE_SECONDS
from repro.trace.columnar import TraceSnapshot, render_value
from repro.trace.tracer import Tracer

#: Microseconds per CE cycle.
_US_PER_CYCLE = CE_CYCLE_SECONDS * 1e6

Traceable = Union[Tracer, TraceSnapshot]


def _cycles_to_us(cycles: float) -> float:
    return round(cycles * _US_PER_CYCLE, 4)


def _as_snapshot(source: Traceable) -> TraceSnapshot:
    return source.snapshot() if isinstance(source, Tracer) else source


def chrome_trace_events(source: Traceable) -> List[dict]:
    """The ``traceEvents`` array for one tracer's (or snapshot's) records."""
    snap = _as_snapshot(source)
    strings = snap.strings
    components = snap.components()
    tids = {component: index + 1 for index, component in enumerate(components)}
    events: List[dict] = []
    for epoch in snap.record_epochs():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": epoch,
                "tid": 0,
                "args": {"name": f"machine run {epoch}"},
            }
        )
        for component, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": epoch,
                    "tid": tid,
                    "args": {"name": component},
                }
            )
    component_col, name_col, epoch_col, start_col, end_col = snap.columns(
        "spans", "component", "name", "epoch", "start", "end"
    )
    args_col = snap.column("spans", "args")
    for component, name, epoch, start, end, span_args in zip(
        component_col, name_col, epoch_col, start_col, end_col, args_col
    ):
        cycles = end - start
        event = {
            "name": strings[name],
            "cat": strings[component],
            "ph": "X",
            "ts": _cycles_to_us(start),
            "dur": _cycles_to_us(cycles),
            "pid": epoch,
            "tid": tids[strings[component]],
        }
        args = dict(span_args or {})
        args["start_cycle"] = start
        args["cycles"] = cycles
        event["args"] = args
        events.append(event)
    component_col, name_col, epoch_col, cycle_col = snap.columns(
        "instants", "component", "name", "epoch", "cycle"
    )
    value_col = snap.column("instants", "value")
    for component, name, epoch, cycle, value in zip(
        component_col, name_col, epoch_col, cycle_col, value_col
    ):
        events.append(
            {
                "name": strings[name],
                "cat": strings[component],
                "ph": "i",
                "s": "t",
                "ts": _cycles_to_us(cycle),
                "pid": epoch,
                "tid": tids[strings[component]],
                "args": {
                    "value": value if snap.values_rendered else render_value(value)
                },
            }
        )
    component_col, name_col, epoch_col, cycle_col = snap.columns(
        "samples", "component", "name", "epoch", "cycle"
    )
    value_col = snap.column("samples", "value")
    for component, name, epoch, cycle, value in zip(
        component_col, name_col, epoch_col, cycle_col, value_col
    ):
        events.append(
            {
                "name": f"{strings[component]}.{strings[name]}",
                "cat": strings[component],
                "ph": "C",
                "ts": _cycles_to_us(cycle),
                "pid": epoch,
                "tid": tids[strings[component]],
                "args": {strings[name]: value},
            }
        )
    return events


def chrome_trace_json(source: Traceable, indent: int = 0) -> str:
    """Full Chrome trace-event JSON document (object form)."""
    snap = _as_snapshot(source)
    document = {
        "traceEvents": chrome_trace_events(snap),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "cedar-repro trace bus",
            "cycle_ns": CE_CYCLE_SECONDS * 1e9,
            "epochs": len(snap.elapsed_by_epoch) or 1,
            "dropped_records": snap.dropped,
        },
    }
    return json.dumps(document, indent=indent or None)


def write_chrome_trace(source: Traceable, path: str) -> None:
    """Write the Chrome trace-event JSON for ``source`` to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(chrome_trace_json(source))


# ---------------------------------------------------------------------------
# Text report
# ---------------------------------------------------------------------------


def _group(component: str) -> str:
    return component.split(".", 1)[0]


def utilization_report(source: Traceable) -> str:
    """Per-component utilization and counter totals, as plain text.

    Components are rolled up by their top-level name and listed by busy
    cycles descending, so the report reads as a hot-spot ranking.  Two
    rates are shown per group: ``%run`` is the group's share of all busy
    cycles in the run (where did the simulated time go), and ``util``
    divides busy cycles by wall cycles times the number of subunits, so 32
    memory modules each busy half the time report as 50%.

    Degenerate traces render defensively: a run with zero spans says so
    instead of emitting an empty table, a zero-cycle wall clock cannot
    divide, and overlapping spans (the analytic model records its cost
    terms on one timeline) are flagged when they push ``util`` past 100%.
    """
    snap = _as_snapshot(source)
    elapsed = snap.elapsed_by_epoch
    wall = sum(elapsed.values())
    busy = snap.busy_cycles
    span_counts = snap.span_counts

    groups: Dict[str, Dict[str, object]] = {}
    for component, cycles in busy.items():
        group = groups.setdefault(
            _group(component), {"subunits": set(), "busy": 0, "spans": 0}
        )
        group["subunits"].add(component)  # type: ignore[union-attr]
        group["busy"] += cycles  # type: ignore[operator]
        group["spans"] += span_counts.get(component, 0)  # type: ignore[operator]

    lines: List[str] = []
    epochs = len(elapsed) or 1
    lines.append(
        f"Trace report: {epochs} machine run(s), {wall} wall cycles, "
        f"{snap.num_records} records ({snap.dropped} dropped)"
    )
    lines.append("")
    overlapping = False
    if groups:
        total_busy = sum(group["busy"] for group in groups.values())
        lines.append(
            "Component utilization, hottest first "
            "(span busy-cycles / wall-cycles):"
        )
        header = (
            f"  {'component':<14} {'subunits':>8} {'spans':>9} "
            f"{'busy-cyc':>12} {'%run':>7} {'util':>8}"
        )
        lines.append(header)
        ranked = sorted(
            groups.items(), key=lambda item: (-item[1]["busy"], item[0])
        )
        for name, group in ranked:
            subunits = len(group["subunits"])  # type: ignore[arg-type]
            busy_cycles = group["busy"]
            share = (busy_cycles / total_busy * 100.0) if total_busy else 0.0
            capacity = wall * subunits
            util = (busy_cycles / capacity * 100.0) if capacity else 0.0
            overlapping = overlapping or util > 100.0
            lines.append(
                f"  {name:<14} {subunits:>8} {group['spans']:>9} "
                f"{busy_cycles:>12} {share:>6.1f}% {util:>7.1f}%"
            )
        if overlapping:
            lines.append(
                "  (util > 100%: overlapping spans share one timeline, "
                "e.g. analytic-model cost terms)"
            )
        lines.append("")
    else:
        lines.append("No spans recorded.")
        lines.append("")

    totals = snap.counter_totals
    if totals:
        rolled: Dict[Tuple[str, str], float] = {}
        for component, counters in totals.items():
            for name, value in counters.items():
                key = (_group(component), name)
                rolled[key] = rolled.get(key, 0) + value
        lines.append("Counters:")
        for (group, name), value in sorted(rolled.items()):
            rendered = f"{value:.0f}" if float(value).is_integer() else f"{value:.2f}"
            lines.append(f"  {group + '.' + name:<38} {rendered:>14}")
    return "\n".join(lines)
