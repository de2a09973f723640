"""Registry exporter: Prometheus text exposition.

The paper moved monitoring data "to workstations for analysis"; this is
our wire format.  :func:`prometheus_text` emits the Prometheus text
exposition format (counters get a ``_total`` suffix if missing, histograms
become cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.metrics.registry import Counter, Gauge, Histogram, Labels, MetricsRegistry


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: Labels, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    by_name: Dict[str, List[object]] = {}
    for instrument in registry:
        by_name.setdefault(instrument.name, []).append(instrument)
    lines: List[str] = []
    for name in sorted(by_name):
        instruments = by_name[name]
        kind = registry.kind(name)
        exposed = name
        if kind == "counter" and not exposed.endswith("_total"):
            exposed += "_total"
        help_text = registry.help_text(name)
        if help_text:
            lines.append(f"# HELP {exposed} {help_text}")
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram"}[kind]
        lines.append(f"# TYPE {exposed} {prom_type}")
        for instrument in instruments:
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(
                    f"{exposed}{_format_labels(instrument.labels)} "
                    f"{_format_value(instrument.value)}"
                )
            else:
                assert isinstance(instrument, Histogram)
                cumulative = 0
                for index in sorted(instrument.buckets):
                    cumulative += instrument.buckets[index]
                    le = _format_value(instrument.bucket_upper_bound(index))
                    lines.append(
                        f"{exposed}_bucket"
                        f"{_format_labels(instrument.labels, (('le', le),))} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{exposed}_bucket"
                    f"{_format_labels(instrument.labels, (('le', '+Inf'),))} "
                    f"{instrument.count}"
                )
                lines.append(
                    f"{exposed}_sum{_format_labels(instrument.labels)} "
                    f"{_format_value(instrument.sum)}"
                )
                lines.append(
                    f"{exposed}_count{_format_labels(instrument.labels)} "
                    f"{instrument.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
