"""Table 3: Cedar execution time, MFLOPS, and speed improvement for the
Perfect Benchmarks, across the measured version ladder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines.cray_ymp import CRAY_YMP8
from repro.core.metrics import harmonic_mean
from repro.core.report import format_table
from repro.metrics.headline import HeadlineMetric
from repro.perfect.suite import PerfectResult, code_names, run_suite
from repro.perfect.versions import Version


@dataclass(frozen=True)
class Table3Result:
    """The full version grid plus the YMP comparison columns."""

    grid: Dict[str, Dict[Version, PerfectResult]]

    def cedar_mflops(self) -> Dict[str, float]:
        return {
            code: versions[Version.AUTOMATABLE].mflops
            for code, versions in self.grid.items()
        }

    def harmonic_mean_mflops(self) -> float:
        return harmonic_mean(list(self.cedar_mflops().values()))

    def ymp_ratio(self) -> float:
        """Harmonic-mean MFLOPS ratio, Y-MP/8 over Cedar."""
        ymp = harmonic_mean(list(CRAY_YMP8.mflops_ensemble().values()))
        return ymp / self.harmonic_mean_mflops()


def run() -> Table3Result:
    return Table3Result(grid=run_suite())


def headline_metrics(result: Table3Result) -> List[HeadlineMetric]:
    """Table 3 headline numbers.  The paper-verbatim anchor is QCD's 1.8x
    automatable improvement; the harmonic means are tracked without paper
    targets (see EXPERIMENTS.md on the In/HM tension)."""
    qcd = result.grid["QCD"][Version.AUTOMATABLE]
    metrics = [
        HeadlineMetric(
            name="qcd_automatable_improvement",
            value=qcd.improvement,
            unit="ratio",
            target=1.8,
            note='Table 3, "1.8 rather than the 20.8" QCD anchor',
        ),
        HeadlineMetric(
            name="harmonic_mean_mflops_cedar",
            value=result.harmonic_mean_mflops(),
            unit="MFLOPS",
            note="Table 3 footer; paper's 23.7/7.4 are inconsistent with "
            "Table 5 (EXPERIMENTS.md)",
        ),
        HeadlineMetric(
            name="ymp_over_cedar_ratio",
            value=result.ymp_ratio(),
            unit="ratio",
            note="Y-MP/8 over Cedar harmonic-mean MFLOPS",
        ),
    ]
    for code in code_names():
        metrics.append(
            HeadlineMetric(
                name=f"mflops_{code.lower()}_automatable",
                value=result.grid[code][Version.AUTOMATABLE].mflops,
                unit="MFLOPS",
                note=f"Table 3, {code} automatable MFLOPS (reconstructed cell)",
            )
        )
    return metrics


def claims(result: Table3Result) -> Dict[str, bool]:
    """Table 3's ladder: the automatable improvements track the paper's,
    KAP never beats them, and KAP alone is "very limited"."""
    from repro.perfect.targets import TARGETS  # only claims read the targets

    outcome = {}
    for code in code_names():
        versions = result.grid[code]
        auto = versions[Version.AUTOMATABLE].improvement
        target = TARGETS[code].auto_improvement
        outcome[
            f"Table 3: {code} automatable improvement within 25% of {target:g}x"
        ] = abs(auto - target) <= 0.25 * abs(target)
        outcome[f"Table 3: {code} KAP improvement <= automatable"] = (
            versions[Version.KAP].improvement <= auto + 1e-9
        )
    limited = sum(
        1 for code in code_names()
        if result.grid[code][Version.KAP].improvement < 1.5
    )
    outcome[
        'Table 3: >= 8 of 13 KAP improvements below 1.5x ("very limited")'
    ] = limited >= 8
    outcome["Table 3: Y-MP/8 over Cedar harmonic-mean MFLOPS > 2 (paper 7.4)"] = (
        result.ymp_ratio() > 2.0
    )
    return outcome


def render(result: Table3Result) -> str:
    rows = []
    ymp = CRAY_YMP8.mflops_ensemble()
    for code in code_names():
        versions = result.grid[code]
        auto = versions[Version.AUTOMATABLE]
        rows.append(
            (
                code,
                f"{auto.serial_seconds:.0f}",
                f"{versions[Version.KAP].improvement:.1f}",
                f"{auto.seconds:.0f}",
                f"{auto.improvement:.1f}",
                f"{versions[Version.AUTOMATABLE_NO_SYNC].seconds:.0f}",
                f"{versions[Version.AUTOMATABLE_NO_PREFETCH].seconds:.0f}",
                f"{auto.mflops:.2f}",
                f"{ymp[code] / auto.mflops:.1f}",
            )
        )
    table = format_table(
        headers=(
            "code",
            "serial s",
            "KAP impr",
            "auto s",
            "auto impr",
            "no-sync s",
            "no-pref s",
            "MFLOPS",
            "YMP/Cedar",
        ),
        rows=rows,
        title="Table 3: Perfect Benchmarks on Cedar (automatable ladder)",
    )
    footer = (
        f"\nharmonic-mean MFLOPS: Cedar {result.harmonic_mean_mflops():.2f}, "
        f"YMP/Cedar ratio {result.ymp_ratio():.1f} "
        "(paper: 23.7 and 7.4; see EXPERIMENTS.md on the In/HM tension)"
    )
    return table + footer
