"""Table 1: MFLOPS for the rank-64 update on Cedar.

Three memory-system versions (GM/no-pref, GM/pref, GM/cache) across one to
four clusters, regenerated on the cycle-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import CedarConfig
from repro.core.report import format_table
from repro.kernels.rank_update import RankUpdateVersion, measure_rank_update
from repro.metrics.headline import HeadlineMetric, slugify

#: The paper's Table 1, for side-by-side display.
PAPER_VALUES: Dict[RankUpdateVersion, Tuple[float, float, float, float]] = {
    RankUpdateVersion.GM_NO_PREFETCH: (14.5, 29.0, 43.0, 55.0),
    RankUpdateVersion.GM_PREFETCH: (50.0, 84.0, 96.0, 104.0),
    RankUpdateVersion.GM_CACHE: (52.0, 104.0, 152.0, 208.0),
}

CLUSTER_COUNTS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Table1Result:
    """Measured MFLOPS per version per cluster count."""

    mflops: Dict[RankUpdateVersion, Tuple[float, ...]]


def units() -> List[str]:
    """Independent machine-run units: one per (version, clusters) cell."""
    return [
        f"{version.name}:{clusters}"
        for version in RankUpdateVersion
        for clusters in CLUSTER_COUNTS
    ]


def run_unit(unit: str, config: Optional[CedarConfig] = None) -> float:
    """Measure one Table 1 cell's MFLOPS (an independent simulator run)."""
    version_name, clusters_text = unit.split(":")
    version = RankUpdateVersion[version_name]
    return measure_rank_update(version, int(clusters_text), config).mflops


def combine(results: Dict[str, float]) -> Table1Result:
    """Assemble per-unit MFLOPS into the table, in declared unit order."""
    measured: Dict[RankUpdateVersion, Tuple[float, ...]] = {}
    for version in RankUpdateVersion:
        measured[version] = tuple(
            results[f"{version.name}:{clusters}"]
            for clusters in CLUSTER_COUNTS
        )
    return Table1Result(mflops=measured)


def run(config: Optional[CedarConfig] = None) -> Table1Result:
    """Regenerate every cell of Table 1 on the simulator."""
    return combine({unit: run_unit(unit, config) for unit in units()})


def headline_metrics(result: Table1Result) -> List[HeadlineMetric]:
    """Every Table 1 cell, measured vs the paper's MFLOPS number."""
    metrics = []
    for version in RankUpdateVersion:
        for clusters, measured, paper in zip(
            CLUSTER_COUNTS, result.mflops[version], PAPER_VALUES[version]
        ):
            metrics.append(
                HeadlineMetric(
                    name=f"mflops_{slugify(version.value)}_{clusters}cl",
                    value=measured,
                    unit="MFLOPS",
                    target=paper,
                    note=f"Table 1, {version.value} at {clusters} cluster(s)",
                )
            )
    return metrics


def render(result: Table1Result) -> str:
    rows = []
    for version in RankUpdateVersion:
        measured = result.mflops[version]
        paper = PAPER_VALUES[version]
        rows.append(
            (version.value, *(f"{m:.1f} ({p:.0f})" for m, p in zip(measured, paper)))
        )
    return format_table(
        headers=("version", "1 cl.", "2 cl.", "3 cl.", "4 cl."),
        rows=rows,
        title="Table 1: MFLOPS for rank-64 update on Cedar -- measured (paper)",
    )
