"""Figure 3: Cray Y-MP/8 vs Cedar efficiency scatter (manual codes).

"The 8-processor YMP has about half high and half intermediate levels of
performance, while the 32-processor Cedar has about one-quarter high and
three-quarters intermediate.  Note that the YMP has one unacceptable
performance, while Cedar has none."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines import CRAY_YMP8
from repro.core.bands import BandCensus, census, classify_efficiency
from repro.core.report import efficiency_scatter, fraction_description
from repro.metrics.headline import HeadlineMetric
from repro.perfect.suite import run_suite
from repro.perfect.versions import Version


@dataclass(frozen=True)
class Figure3Result:
    cedar_efficiencies: Dict[str, float]
    ymp_efficiencies: Dict[str, float]
    cedar_census: BandCensus
    ymp_census: BandCensus


def cedar_manual_efficiencies() -> Dict[str, float]:
    """Hand-version efficiency per code (falls back to automatable where
    no hand recipe exists -- every profile here ships one)."""
    grid = run_suite(versions=(Version.SERIAL, Version.AUTOMATABLE, Version.HAND))
    efficiencies = {}
    for code, versions in grid.items():
        best = versions.get(Version.HAND, versions[Version.AUTOMATABLE])
        efficiencies[code] = best.efficiency
    return efficiencies


def run() -> Figure3Result:
    cedar = cedar_manual_efficiencies()
    ymp = CRAY_YMP8.efficiencies(manual=True)
    return Figure3Result(
        cedar_efficiencies=cedar,
        ymp_efficiencies=ymp,
        cedar_census=census(cedar, 32),
        ymp_census=census(ymp, CRAY_YMP8.processors),
    )


def headline_metrics(result: Figure3Result) -> List[HeadlineMetric]:
    """Figure 3 band counts.  The unacceptable counts are paper-exact
    ("Cedar has none", YMP "one unacceptable"); the high/intermediate
    splits are quoted only as fractions and are snapshot-tracked."""
    return [
        HeadlineMetric(
            name="manual_unacceptable_cedar",
            value=float(result.cedar_census.unacceptable),
            unit="codes",
            target=0.0,
            note='Figure 3, "Cedar has none"',
        ),
        HeadlineMetric(
            name="manual_unacceptable_ymp",
            value=float(result.ymp_census.unacceptable),
            unit="codes",
            target=1.0,
            note='Figure 3, "the YMP has one unacceptable performance"',
        ),
        HeadlineMetric(
            name="manual_high_cedar",
            value=float(result.cedar_census.high),
            unit="codes",
            note='Figure 3, "about one-quarter high" of 13 codes',
        ),
        HeadlineMetric(
            name="manual_high_ymp",
            value=float(result.ymp_census.high),
            unit="codes",
            note='Figure 3, "about half high" of 13 codes',
        ),
    ]


def claims(result: Figure3Result) -> Dict[str, bool]:
    """The paper's reading of Figure 3, band by band."""
    cedar, ymp = result.cedar_census, result.ymp_census
    return {
        'Figure 3: Cedar has no unacceptable code ("Cedar has none")':
            cedar.unacceptable == 0,
        'Figure 3: Cedar has 3-5 high codes ("about one-quarter high")':
            3 <= cedar.high <= 5,
        "Figure 3: Cedar has >= 8 intermediate codes "
        '("three-quarters intermediate")': cedar.intermediate >= 8,
        'Figure 3: Y-MP/8 has 6 high codes ("about half high")':
            ymp.high == 6,
        "Figure 3: Y-MP/8 has 6 intermediate codes "
        '("half intermediate")': ymp.intermediate == 6,
        'Figure 3: Y-MP/8 has 1 unacceptable code ("one unacceptable")':
            ymp.unacceptable == 1,
    }


def render(result: Figure3Result) -> str:
    plot = efficiency_scatter(
        x_efficiencies=result.ymp_efficiencies,
        y_efficiencies=result.cedar_efficiencies,
        x_processors=CRAY_YMP8.processors,
        y_processors=32,
    )
    cedar_bands = {
        code: classify_efficiency(eff, 32)
        for code, eff in result.cedar_efficiencies.items()
    }
    ymp_bands = {
        code: classify_efficiency(eff, CRAY_YMP8.processors)
        for code, eff in result.ymp_efficiencies.items()
    }
    return "\n".join(
        [
            "Figure 3: Cray YMP/8 vs Cedar efficiency (manual codes)",
            plot,
            f"Cedar: {fraction_description(cedar_bands)} "
            "(paper: ~1/4 high, ~3/4 intermediate, none unacceptable)",
            f"YMP/8: {fraction_description(ymp_bands)} "
            "(paper: ~half high, ~half intermediate, one unacceptable)",
        ]
    )
