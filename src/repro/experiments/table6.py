"""Table 6: restructuring efficiency bands (PPT3).

Band census of compiler-delivered efficiency at the machine's processor
count: Cedar automatable at P=32 (paper: 1 high, 9 intermediate,
3 unacceptable) vs Cray Y-MP/8 compiled at P=8 (paper: 0/6/7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines import CRAY_YMP8
from repro.core.bands import BandCensus, census
from repro.core.report import format_table
from repro.metrics.headline import HeadlineMetric
from repro.perfect.suite import run_suite
from repro.perfect.versions import Version

PAPER_CEDAR = (1, 9, 3)
PAPER_YMP = (0, 6, 7)


@dataclass(frozen=True)
class Table6Result:
    cedar: BandCensus
    ymp: BandCensus
    cedar_efficiencies: Dict[str, float]


def cedar_efficiencies() -> Dict[str, float]:
    grid = run_suite(versions=(Version.SERIAL, Version.AUTOMATABLE))
    return {
        code: versions[Version.AUTOMATABLE].efficiency
        for code, versions in grid.items()
    }


def run() -> Table6Result:
    cedar = cedar_efficiencies()
    return Table6Result(
        cedar=census(cedar, 32),
        ymp=census(CRAY_YMP8.efficiencies(), CRAY_YMP8.processors),
        cedar_efficiencies=cedar,
    )


def headline_metrics(result: Table6Result) -> List[HeadlineMetric]:
    """All six Table 6 band counts, exact against the paper."""
    metrics = []
    for machine, label, paper in (
        ("cedar", result.cedar, PAPER_CEDAR),
        ("ymp", result.ymp, PAPER_YMP),
    ):
        for band, measured, target in zip(
            ("high", "intermediate", "unacceptable"),
            (label.high, label.intermediate, label.unacceptable),
            paper,
        ):
            metrics.append(
                HeadlineMetric(
                    name=f"band_{band}_{machine}",
                    value=float(measured),
                    unit="codes",
                    target=float(target),
                    note=f"Table 6, {band} band on {machine}",
                )
            )
    return metrics


def claims(result: Table6Result) -> Dict[str, bool]:
    """Both band censuses, exact (high, intermediate, unacceptable)."""
    return {
        f"Table 6: Cedar automatable census at P=32 is {PAPER_CEDAR}": (
            result.cedar.high, result.cedar.intermediate,
            result.cedar.unacceptable,
        ) == PAPER_CEDAR,
        f"Table 6: Y-MP/8 compiled census is {PAPER_YMP}": (
            result.ymp.high, result.ymp.intermediate, result.ymp.unacceptable,
        ) == PAPER_YMP,
    }


def render(result: Table6Result) -> str:
    rows = [
        (
            "High (Ep >= .5)",
            f"{result.cedar.high} ({PAPER_CEDAR[0]})",
            f"{result.ymp.high} ({PAPER_YMP[0]})",
        ),
        (
            "Intermediate (Ep >= 1/2logP)",
            f"{result.cedar.intermediate} ({PAPER_CEDAR[1]})",
            f"{result.ymp.intermediate} ({PAPER_YMP[1]})",
        ),
        (
            "Unacceptable (Ep < 1/2logP)",
            f"{result.cedar.unacceptable} ({PAPER_CEDAR[2]})",
            f"{result.ymp.unacceptable} ({PAPER_YMP[2]})",
        ),
    ]
    return format_table(
        headers=("performance level", "Cedar", "Cray YMP"),
        rows=rows,
        title="Table 6: restructuring efficiency -- measured (paper)",
    )
