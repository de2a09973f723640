"""Table 5: instability of the Perfect ensembles on Cedar, Cray 1, Y-MP/8.

In(13, e) for e in {0, 2, 6} over the compiled/automatable MFLOPS
ensembles, plus the minimal exclusions needed for workstation-level
stability (In <= 6): two on Cedar and the Cray 1, six on the Y-MP/8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines import CRAY_1, CRAY_YMP8
from repro.core.report import format_table
from repro.metrics.headline import HeadlineMetric, slugify
from repro.core.stability import (
    STABILITY_THRESHOLD,
    instability_profile,
    minimal_exclusions_for_stability,
)
from repro.perfect.suite import run_suite
from repro.perfect.versions import Version

EXCLUSION_COUNTS = (0, 2, 6)

#: The paper's Table 5 (dashes where the scan is unreadable).
PAPER_VALUES: Dict[str, Dict[int, Optional[float]]] = {
    "cedar": {0: 63.4, 2: 5.8, 6: None},
    "cray-1": {0: 10.9, 2: 4.6, 6: None},
    "cray-ymp8": {0: 75.3, 2: 29.0, 6: 5.3},
}


@dataclass(frozen=True)
class Table5Result:
    profiles: Dict[str, Dict[int, float]]
    exclusions_needed: Dict[str, int]


def cedar_mflops_ensemble() -> Dict[str, float]:
    """The Cedar automatable MFLOPS ensemble from the machine model."""
    grid = run_suite(versions=(Version.SERIAL, Version.AUTOMATABLE))
    return {
        code: versions[Version.AUTOMATABLE].mflops
        for code, versions in grid.items()
    }


def run() -> Table5Result:
    ensembles = {
        "cedar": cedar_mflops_ensemble(),
        "cray-1": CRAY_1.mflops_ensemble(),
        "cray-ymp8": CRAY_YMP8.mflops_ensemble(),
    }
    profiles = {
        name: instability_profile(rates, EXCLUSION_COUNTS)
        for name, rates in ensembles.items()
    }
    needed = {
        name: minimal_exclusions_for_stability(rates, STABILITY_THRESHOLD)
        for name, rates in ensembles.items()
    }
    return Table5Result(profiles=profiles, exclusions_needed=needed)


#: Exclusions needed for workstation-level stability (In <= 6), per paper.
PAPER_EXCLUSIONS = {"cedar": 2, "cray-1": 2, "cray-ymp8": 6}


def headline_metrics(result: Table5Result) -> List[HeadlineMetric]:
    """Every legible Table 5 cell plus the exclusion counts."""
    metrics = []
    for machine, profile in sorted(result.profiles.items()):
        slug = slugify(machine)
        for e in EXCLUSION_COUNTS:
            measured = profile.get(e)
            if measured is None:
                continue
            metrics.append(
                HeadlineMetric(
                    name=f"instability_{slug}_e{e}",
                    value=measured,
                    unit="In",
                    target=PAPER_VALUES[machine].get(e),
                    note=f"Table 5, In(13, {e}) on {machine}",
                )
            )
        metrics.append(
            HeadlineMetric(
                name=f"exclusions_for_stability_{slug}",
                value=float(result.exclusions_needed[machine]),
                unit="codes",
                target=float(PAPER_EXCLUSIONS[machine]),
                note=f"Table 5, exclusions for In <= 6 on {machine}",
            )
        )
    return metrics


def claims(result: Table5Result) -> Dict[str, bool]:
    """Every legible Table 5 cell (Cedar within 10%, the Crays within 0.3)
    and "two exceptions are sufficient on the Cray 1 and Cedar, whereas
    the YMP needs six"."""
    outcome = {}
    for machine, paper in PAPER_VALUES.items():
        for e, target in paper.items():
            if target is None:
                continue
            measured = result.profiles[machine][e]
            if machine == "cedar":
                text, holds = "10%", abs(measured - target) <= 0.10 * target
            else:
                text, holds = "0.3", abs(measured - target) <= 0.3
            outcome[
                f"Table 5: In(13, {e}) on {machine} within {text} of {target:g}"
            ] = holds
        needed = PAPER_EXCLUSIONS[machine]
        outcome[f"Table 5: {machine} needs {needed} exclusions for In <= 6"] = (
            result.exclusions_needed[machine] == needed
        )
    return outcome


def render(result: Table5Result) -> str:
    rows = []
    for machine, profile in result.profiles.items():
        paper = PAPER_VALUES[machine]
        cells = []
        for e in EXCLUSION_COUNTS:
            measured = profile.get(e)
            reference = paper.get(e)
            text = f"{measured:.1f}" if measured is not None else "-"
            if reference is not None:
                text += f" ({reference})"
            cells.append(text)
        rows.append((machine, *cells, result.exclusions_needed[machine]))
    return format_table(
        headers=("machine", "In(13,0)", "In(13,2)", "In(13,6)", "e for In<=6"),
        rows=rows,
        title="Table 5: instability for Perfect codes -- measured (paper)",
    )
