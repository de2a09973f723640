"""Table 4: execution times for manually altered Perfect codes and their
improvement over automatable-with-prefetch-without-Cedar-synchronization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.report import format_table
from repro.metrics.headline import HeadlineMetric
from repro.perfect.suite import run_code
from repro.perfect.targets import TARGETS
from repro.perfect.versions import Version

#: Codes whose hand optimizations the paper's Table 4 lists.
TABLE4_CODES = ("ARC3D", "BDNA", "DYFESM", "FLO52", "QCD", "SPICE", "TRFD")


@dataclass(frozen=True)
class Table4Row:
    code: str
    hand_seconds: float
    improvement: float  # over the no-sync automatable version (Table 4 basis)
    paper_seconds: Optional[float]
    paper_improvement: Optional[float]


@dataclass(frozen=True)
class Table4Result:
    rows: Tuple[Table4Row, ...]


def run() -> Table4Result:
    rows = []
    for code in TABLE4_CODES:
        hand = run_code(code, Version.HAND)
        nosync = run_code(code, Version.AUTOMATABLE_NO_SYNC)
        target = TARGETS[code]
        rows.append(
            Table4Row(
                code=code,
                hand_seconds=hand.seconds,
                improvement=nosync.seconds / hand.seconds,
                paper_seconds=target.hand_seconds,
                paper_improvement=target.hand_improvement,
            )
        )
    return Table4Result(rows=tuple(rows))


def headline_metrics(result: Table4Result) -> List[HeadlineMetric]:
    """Hand-optimized times and improvements against the paper's Table 4."""
    metrics = []
    for row in result.rows:
        code = row.code.lower()
        metrics.append(
            HeadlineMetric(
                name=f"hand_seconds_{code}",
                value=row.hand_seconds,
                unit="s",
                target=row.paper_seconds,
                note=f"Table 4, {row.code} hand-optimized time",
            )
        )
        metrics.append(
            HeadlineMetric(
                name=f"hand_improvement_{code}",
                value=row.improvement,
                unit="ratio",
                target=row.paper_improvement,
                note=f"Table 4, {row.code} improvement over no-sync automatable",
            )
        )
    return metrics


#: Paper Table 4 values the claims hold each row to, with the relative
#: tolerance of each: (seconds, rel) and (improvement, rel).
CLAIMED_SECONDS = {
    "ARC3D": (68.0, 0.2), "BDNA": (70.0, 0.15), "DYFESM": (31.0, 0.2),
    "FLO52": (33.0, 0.2), "QCD": (21.0, 0.15), "SPICE": (26.0, 0.2),
    "TRFD": (7.5, 0.15),
}
CLAIMED_IMPROVEMENTS = {
    "QCD": (11.4, 0.15), "TRFD": (2.8, 0.15), "ARC3D": (2.1, 0.15),
    "BDNA": (1.7, 0.15),
}


def claims(result: Table4Result) -> Dict[str, bool]:
    """Hand-optimized times and improvements near the paper's."""
    by_code = {row.code: row for row in result.rows}
    outcome = {}
    for label, claimed, value in (
        ("time", CLAIMED_SECONDS, lambda row: row.hand_seconds),
        ("improvement", CLAIMED_IMPROVEMENTS, lambda row: row.improvement),
    ):
        for code, (paper, rel) in claimed.items():
            outcome[
                f"Table 4: {code} hand {label} within {rel:.0%} of {paper:g}"
            ] = abs(value(by_code[code]) - paper) <= rel * paper
    return outcome


def render(result: Table4Result) -> str:
    rows = [
        (
            row.code,
            f"{row.hand_seconds:.1f}",
            f"{row.improvement:.2f}",
            f"{row.paper_seconds:.1f}" if row.paper_seconds else "-",
            f"{row.paper_improvement:.1f}" if row.paper_improvement else "-",
        )
        for row in result.rows
    ]
    return format_table(
        headers=("code", "time s", "improvement", "paper s", "paper impr"),
        rows=rows,
        title=(
            "Table 4: manually altered Perfect codes (improvement over "
            "automatable w/ prefetch, w/o Cedar sync)"
        ),
    )
