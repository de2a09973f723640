"""Table 1: MFLOPS for the rank-64 update on Cedar.

Three memory-system versions (GM/no-pref, GM/pref, GM/cache) across one to
four clusters, regenerated on the cycle-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_CONFIG, CedarConfig
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


def claims(result: Table1Result) -> Dict[str, bool]:
    """Table 1's shape: prefetch's gain over the latency-bound version
    shrinks from ~3.5x at one cluster toward ~2x at four; the cache version
    scales near-linearly to ~75% of the 274 MFLOPS effective peak."""
    no_pref, pref, cache = (result.mflops[version] for version in RankUpdateVersion)
    gain = [p / n for p, n in zip(pref, no_pref)]
    peak_fraction = cache[3] / DEFAULT_CONFIG.effective_peak_mflops
    return {
        "Table 1: GM/no-pref at 1 cluster in [10, 18] MFLOPS (paper 14.5)":
            10.0 <= no_pref[0] <= 18.0,
        "Table 1: GM/no-pref at 4 clusters in [42, 62] MFLOPS (paper 55)":
            42.0 <= no_pref[3] <= 62.0,
        "Table 1: prefetch gain over GM/no-pref shrinks from 1 to 4 clusters":
            gain[0] > gain[3],
        "Table 1: prefetch gain at 1 cluster >= 2.5x (paper ~3.5x)":
            gain[0] >= 2.5,
        "Table 1: prefetch gain at 4 clusters >= 1.5x (paper ~2x)":
            gain[3] >= 1.5,
        "Table 1: GM/cache beats GM/pref at 2, 3 and 4 clusters":
            all(c > p for p, c in zip(pref[1:], cache[1:])),
        "Table 1: GM/cache 4-cluster over 1-cluster rate within 12% of 4x":
            abs(cache[3] / cache[0] - 4.0) <= 0.12 * 4.0,
        "Table 1: GM/cache at 4 clusters is 60-90% of the effective peak "
        "(paper ~75% of 274 MFLOPS)": 0.6 <= peak_fraction <= 0.9,
    }


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
