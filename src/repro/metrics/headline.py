"""Headline metrics: what each experiment declares it is measuring.

Every experiment driver exposes a ``headline_metrics(result)`` function
returning a list of :class:`HeadlineMetric` -- the handful of numbers that
*are* that table or figure, each optionally paired with the paper-quoted
target it reproduces.  The bench harness snapshots these as the fidelity
section of ``BENCH_<n>.json``: measured values are diffed snapshot-to-
snapshot (fidelity drift hard-fails), and the paper targets give every
snapshot a self-contained measured-vs-paper column.

Metric names are a stable public interface: renaming one orphans its
history in every existing snapshot, so prefer adding metrics to renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class HeadlineMetric:
    """One declared measurement of an experiment.

    Attributes:
        name: Stable snake_case identifier, unique within the experiment.
        value: The measured value from this run.
        unit: Unit label (``"MFLOPS"``, ``"cycles"``, ``"codes"``, ...).
        target: The paper-quoted value, where the scan is legible; ``None``
            for metrics the paper states only qualitatively.
        note: Short provenance note (which table cell / quote this is).
    """

    name: str
    value: float
    unit: str = ""
    target: Optional[float] = None
    note: str = ""

    @property
    def relative_error(self) -> Optional[float]:
        """|measured - target| / |target|, when a paper target exists."""
        if self.target is None or self.target == 0:
            return None
        return abs(self.value - self.target) / abs(self.target)

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "target": self.target,
        }
        if self.target is not None:
            record["relative_error"] = self.relative_error
        if self.note:
            record["note"] = self.note
        return record


def slugify(text: str) -> str:
    """A metric-name-safe fragment from a free-form label."""
    out = []
    for ch in text.lower():
        out.append(ch if ch.isalnum() else "_")
    slug = "".join(out)
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")
