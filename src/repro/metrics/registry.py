"""A structured metrics layer above the raw trace bus.

The trace bus (:mod:`repro.trace`) is the cabling: components report raw
counters, spans, and instants with no schema.  This module is the
workstation-side *instrument panel* built on top of it: a
:class:`MetricsRegistry` holding named, labeled instruments --

* :class:`Counter` -- monotonically increasing totals (events dispatched,
  packets injected);
* :class:`Gauge` -- last-written values (MFLOPS of a run, utilization of a
  subsystem, a fidelity error against a paper target);
* :class:`Histogram` -- log-bucketed distributions (latencies,
  interarrival gaps), mirroring the paper's 64K-counter histogrammers but
  with exponential bins so one instrument spans nanoseconds to minutes.

Labels follow the Prometheus data model: an instrument name plus a sorted
``(key, value)`` label set identify one time series.  The registry itself
is passive storage -- it never requires a recording tracer, so fidelity
metrics exist even for tracing-disabled runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import MetricsError

Labels = Tuple[Tuple[str, str], ...]

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_REST = _NAME_START | set("0123456789")


def _validate_name(name: str) -> str:
    if not name or name[0] not in _NAME_START or any(
        c not in _NAME_REST for c in name
    ):
        raise MetricsError(
            f"invalid metric name {name!r}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def canonical_labels(labels: Optional[Mapping[str, object]]) -> Labels:
    """Sorted, stringified label pairs -- the identity of a time series."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    labels: Labels = ()
    value: float = 0.0

    def inc(self, delta: float = 1.0) -> float:
        if delta < 0:
            raise MetricsError(
                f"counter {self.name} cannot decrease (delta {delta})"
            )
        self.value += delta
        return self.value


@dataclass
class Gauge:
    """A value that can go anywhere; remembers only the last write."""

    name: str
    labels: Labels = ()
    value: float = 0.0

    def set(self, value: float) -> float:
        if not math.isfinite(value):
            raise MetricsError(f"gauge {self.name} set to non-finite {value!r}")
        self.value = float(value)
        return self.value

    def add(self, delta: float) -> float:
        return self.set(self.value + delta)


class Histogram:
    """A log-bucketed histogram: bucket ``i`` covers ``[base**i, base**(i+1))``.

    Values below 1 (including 0) land in a dedicated underflow bucket at
    index ``-1``; exact totals (count, sum, min, max) are kept alongside so
    means are not quantized by the bucketing.
    """

    def __init__(self, name: str, labels: Labels = (), base: float = 2.0) -> None:
        if base <= 1.0:
            raise MetricsError(f"histogram base must be > 1, got {base}")
        self.name = name
        self.labels = labels
        self.base = base
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def bucket_index(self, value: float) -> int:
        if value < 1.0:
            return -1
        return int(math.log(value, self.base))

    def observe(self, value: float) -> None:
        if value < 0:
            raise MetricsError(
                f"histogram {self.name} observed negative value {value}"
            )
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def bucket_upper_bound(self, index: int) -> float:
        """Exclusive upper edge of bucket ``index`` (1.0 for the underflow)."""
        return self.base ** (index + 1) if index >= 0 else 1.0

    def mean(self) -> float:
        if self.count == 0:
            raise MetricsError(f"histogram {self.name} is empty")
        return self.sum / self.count


Instrument = object  # Counter | Gauge | Histogram


class MetricsRegistry:
    """All instruments of one run, addressable by (name, labels).

    ``counter`` / ``gauge`` / ``histogram`` get-or-create; a name used for
    one instrument kind cannot be reused for another.  Optional per-name
    help strings feed the Prometheus ``# HELP`` lines.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], Instrument] = {}
        self._kinds: Dict[str, type] = {}
        self._help: Dict[str, str] = {}

    def _get(self, cls, name: str, labels: Optional[Mapping[str, object]],
             help: Optional[str]):
        _validate_name(name)
        known = self._kinds.get(name)
        if known is not None and known is not cls:
            raise MetricsError(
                f"metric {name!r} already registered as {known.__name__}, "
                f"cannot reuse as {cls.__name__}"
            )
        self._kinds[name] = cls
        if help:
            self._help[name] = help
        key = (name, canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, labels: Optional[Mapping[str, object]] = None,
                help: Optional[str] = None) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels: Optional[Mapping[str, object]] = None,
              help: Optional[str] = None) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str, labels: Optional[Mapping[str, object]] = None,
                  help: Optional[str] = None) -> Histogram:
        return self._get(Histogram, name, labels, help)

    def help_text(self, name: str) -> Optional[str]:
        return self._help.get(name)

    def kind(self, name: str) -> Optional[str]:
        cls = self._kinds.get(name)
        return cls.__name__.lower() if cls else None

    def __iter__(self) -> Iterator[Instrument]:
        """Instruments in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def get(self, name: str, labels: Optional[Mapping[str, object]] = None
            ) -> Optional[Instrument]:
        """Look up one series without creating it."""
        return self._instruments.get((name, canonical_labels(labels)))

    def series(self, name: str) -> List[Instrument]:
        """Every labeled series registered under ``name``."""
        return [
            inst for (n, _), inst in sorted(self._instruments.items()) if n == name
        ]

    def as_flat_dict(self) -> Dict[str, float]:
        """{`name{k=v,...}`: value} for counters and gauges (histograms are
        flattened to _count/_sum/_min/_max/_mean series) -- the form the
        bench snapshot stores and diffs."""
        flat: Dict[str, float] = {}
        for instrument in self:
            key = flat_series_name(instrument.name, instrument.labels)
            if isinstance(instrument, (Counter, Gauge)):
                flat[key] = instrument.value
            else:
                assert isinstance(instrument, Histogram)
                flat[key + "_count"] = float(instrument.count)
                flat[key + "_sum"] = instrument.sum
                if instrument.count:
                    flat[key + "_min"] = float(instrument.min)
                    flat[key + "_max"] = float(instrument.max)
                    flat[key + "_mean"] = instrument.mean()
        return flat


def flat_series_name(name: str, labels: Labels) -> str:
    """``name{k=v,...}`` -- one stable string key per series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"
