"""PPT4, Code and Architecture Scalability (Section 4.3).

Cedar side: conjugate gradient on the cycle simulator, processors 2..32 and
problem sizes 1K..172K.  Paper: "Cedar exhibits scalable high performance
for matrices larger than something between 10K and 16K ... and scalable
intermediate performance for smaller matrices"; at 32 processors CG
delivers "between 34 and 48 MFLOPS as the problem size ranges from 10K to
172K".

CM-5 side: banded matrix-vector products (bandwidths 3 and 11) on 32, 256
and 512 processors without floating-point accelerators, 16K <= N <= 256K:
scalable *intermediate* performance, 28-32 MFLOPS (BW=3) and 58-67 MFLOPS
(BW=11) at 32 processors.

Speedups are relative to the one-processor run of the same (vectorized,
prefetched) code, as in an algorithm-level scalability study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.cm5 import CM5Model
from repro.config import CedarConfig
from repro.core.bands import Band
from repro.core.ppt import PPT4Result, ScalabilityPoint, evaluate_ppt4
from repro.core.report import format_table
from repro.kernels.conjugate_gradient import FLOPS_PER_POINT, cg_time_cycles
from repro.metrics.headline import HeadlineMetric

CEDAR_PROCESSOR_COUNTS = (8, 16, 32)
CEDAR_PROBLEM_SIZES = (1_024, 4_096, 10_240, 16_384, 45_056, 90_112, 176_128)
CM5_PROBLEM_SIZES = (16_384, 65_536, 262_144)
CM5_PARTITIONS = (32, 256, 512)


@dataclass(frozen=True)
class PPT4Study:
    cedar: PPT4Result
    cm5: Dict[int, PPT4Result]  # bandwidth -> result
    cedar_mflops_at_32: Tuple[float, float]  # min/max over sizes >= 10K


def units() -> List[str]:
    """Independent simulator-run units: serial baselines + (P, N) points.

    Each unit is one ``cg_time_cycles`` run; :func:`combine` derives the
    scalability points and the (analytic, cheap) CM-5 side, so sharding
    these across partitions reproduces :func:`run` exactly.
    """
    names = [f"serial:{n}" for n in CEDAR_PROBLEM_SIZES]
    names.extend(
        f"cg:{processors}:{n}"
        for processors in CEDAR_PROCESSOR_COUNTS
        for n in CEDAR_PROBLEM_SIZES
        if n >= processors * 64  # below one strip per CE: not meaningful
    )
    return names


def run_unit(unit: str, config: Optional[CedarConfig] = None) -> float:
    """One CG timing run (cycles) for a serial baseline or a (P, N) point."""
    parts = unit.split(":")
    if parts[0] == "serial":
        return cg_time_cycles(1, int(parts[1]), config)
    return cg_time_cycles(int(parts[1]), int(parts[2]), config)


def _cedar_points_from_cycles(
    serial_cycles: Dict[int, float],
    point_cycles: Dict[Tuple[int, int], float],
) -> List[ScalabilityPoint]:
    points: List[ScalabilityPoint] = []
    for processors in CEDAR_PROCESSOR_COUNTS:
        for n in CEDAR_PROBLEM_SIZES:
            if n < processors * 64:
                continue
            cycles = point_cycles[(processors, n)]
            mflops = FLOPS_PER_POINT * n / (cycles * 170e-9) / 1e6
            speedup = serial_cycles[n] / cycles
            points.append(
                ScalabilityPoint(
                    processors=processors,
                    problem_size=n,
                    mflops=mflops,
                    efficiency=speedup / processors,
                )
            )
    return points


def cedar_cg_points(
    config: Optional[CedarConfig] = None,
) -> List[ScalabilityPoint]:
    """CG rate/efficiency across (P, N) on the cycle simulator."""
    serial_cycles = {
        n: cg_time_cycles(1, n, config) for n in CEDAR_PROBLEM_SIZES
    }
    point_cycles = {
        (processors, n): cg_time_cycles(processors, n, config)
        for processors in CEDAR_PROCESSOR_COUNTS
        for n in CEDAR_PROBLEM_SIZES
        if n >= processors * 64
    }
    return _cedar_points_from_cycles(serial_cycles, point_cycles)


def _study_from_points(cedar_points: List[ScalabilityPoint]) -> PPT4Study:
    cedar = evaluate_ppt4("cedar", cedar_points)
    cm5 = {}
    for bandwidth in (3, 11):
        points: List[ScalabilityPoint] = []
        for partition in CM5_PARTITIONS:
            model = CM5Model(processors=partition)
            points.extend(
                model.scalability_points(bandwidth, list(CM5_PROBLEM_SIZES))
            )
        cm5[bandwidth] = evaluate_ppt4("cm5", points)
    at_32 = [
        p.mflops
        for p in cedar_points
        if p.processors == 32 and p.problem_size >= 10_240
    ]
    return PPT4Study(
        cedar=cedar,
        cm5=cm5,
        cedar_mflops_at_32=(min(at_32), max(at_32)),
    )


def combine(results: Dict[str, float]) -> PPT4Study:
    """Assemble per-unit cycle counts into the full study."""
    serial_cycles = {
        n: results[f"serial:{n}"] for n in CEDAR_PROBLEM_SIZES
    }
    point_cycles = {
        (processors, n): results[f"cg:{processors}:{n}"]
        for processors in CEDAR_PROCESSOR_COUNTS
        for n in CEDAR_PROBLEM_SIZES
        if n >= processors * 64
    }
    return _study_from_points(
        _cedar_points_from_cycles(serial_cycles, point_cycles)
    )


def run(config: Optional[CedarConfig] = None) -> PPT4Study:
    return _study_from_points(cedar_cg_points(config))


def headline_metrics(study: PPT4Study) -> List[HeadlineMetric]:
    """PPT4 headline numbers.  The Cedar CG rates carry the paper's 34-48
    MFLOPS quote as informational targets (the simulator runs ~30% optimistic,
    see EXPERIMENTS.md); the CM-5 ranges and the no-unacceptable count are
    reproduced inside the quoted bounds."""
    low, high = study.cedar_mflops_at_32
    unacceptable = sum(
        1 for p in study.cedar.points if p.band is Band.UNACCEPTABLE
    ) + sum(
        1
        for result in study.cm5.values()
        for p in result.points
        if p.band is Band.UNACCEPTABLE
    )
    metrics = [
        HeadlineMetric(
            name="cedar_cg_mflops_at_32_min",
            value=low,
            unit="MFLOPS",
            target=34.0,
            note="PPT4, Cedar CG at P=32 over N>=10K (paper: 34..48)",
        ),
        HeadlineMetric(
            name="cedar_cg_mflops_at_32_max",
            value=high,
            unit="MFLOPS",
            target=48.0,
            note="PPT4, Cedar CG at P=32 over N>=10K (paper: 34..48)",
        ),
        HeadlineMetric(
            name="unacceptable_points",
            value=float(unacceptable),
            unit="points",
            target=0.0,
            note='PPT4, "No unacceptable performance was observed"',
        ),
    ]
    for bandwidth, result in sorted(study.cm5.items()):
        rates = [p.mflops for p in result.points if p.processors == 32]
        paper_low, paper_high = {3: (28.0, 32.0), 11: (58.0, 67.0)}[bandwidth]
        metrics.append(
            HeadlineMetric(
                name=f"cm5_bw{bandwidth}_mflops_at_32_min",
                value=min(rates),
                unit="MFLOPS",
                target=paper_low,
                note=f"PPT4, CM-5 BW={bandwidth} at 32 nodes "
                f"(paper: {paper_low:.0f}..{paper_high:.0f})",
            )
        )
        metrics.append(
            HeadlineMetric(
                name=f"cm5_bw{bandwidth}_mflops_at_32_max",
                value=max(rates),
                unit="MFLOPS",
                target=paper_high,
                note=f"PPT4, CM-5 BW={bandwidth} at 32 nodes "
                f"(paper: {paper_low:.0f}..{paper_high:.0f})",
            )
        )
    return metrics


def claims(study: PPT4Study) -> Dict[str, bool]:
    """PPT4 on both machines: Cedar CG is scalable and high above a
    10K-16K crossover, intermediate below, never unacceptable, at 34-48
    MFLOPS on 32 CEs; the CM-5 is scalable intermediate at its quoted
    rates."""
    points = study.cedar.points
    at_32 = {p.problem_size: p for p in points if p.processors == 32}
    low, high = study.cedar_mflops_at_32
    cm5_rates = {
        bandwidth: [p.mflops for p in result.points_at(32)]
        for bandwidth, result in study.cm5.items()
    }
    return {
        "PPT4: the Cedar CG study has points": bool(points),
        'PPT4: no Cedar CG point is unacceptable ("No unacceptable '
        'performance was observed")':
            all(p.band is not Band.UNACCEPTABLE for p in points),
        "PPT4: every Cedar CG point with N >= 16K is high":
            all(p.band is Band.HIGH for p in points if p.problem_size >= 16_384),
        "PPT4: Cedar CG at P=32, N=16K is high (crossover between 10K "
        "and 16K)": at_32[16_384].band is Band.HIGH,
        "PPT4: Cedar CG efficiency at P=32 is lower at the smallest N "
        "than at 16K": at_32[min(at_32)].efficiency < at_32[16_384].efficiency,
        "PPT4: Cedar CG is scalable at P = 8, 16 and 32 for N >= 4K":
            study.cedar.scalable_processor_counts(min_problem_size=4_096)
            == [8, 16, 32],
        "PPT4: Cedar CG rate at P=32 grows with N (paper 34 -> 48 MFLOPS)":
            high > low,
        "PPT4: Cedar CG minimum rate at P=32 in [30, 75] MFLOPS (paper 34)":
            30.0 <= low <= 75.0,
        "PPT4: Cedar CG maximum rate at P=32 in [40, 85] MFLOPS (paper 48)":
            40.0 <= high <= 85.0,
        "PPT4: CM-5 BW=3 rates at 32 nodes in [27, 33] MFLOPS (paper 28-32)":
            min(cm5_rates[3]) >= 27.0 and max(cm5_rates[3]) <= 33.0,
        "PPT4: CM-5 BW=11 rates at 32 nodes in [57, 68] MFLOPS (paper 58-67)":
            min(cm5_rates[11]) >= 57.0 and max(cm5_rates[11]) <= 68.0,
        "PPT4: every CM-5 point is intermediate (\"scalable intermediate "
        'performance")': all(
            p.band is Band.INTERMEDIATE
            for result in study.cm5.values() for p in result.points
        ),
        "PPT4: CM-5 BW=11 MFLOPS per node at 32 nodes, N=16K, in [1, 3] "
        "(roughly Cedar's)": 1.0 <= cm5_rates[11][0] / 32 <= 3.0,
    }


def render(study: PPT4Study) -> str:
    rows = []
    for point in study.cedar.points:
        rows.append(
            (
                "cedar CG",
                point.processors,
                point.problem_size,
                f"{point.mflops:.1f}",
                f"{point.efficiency:.2f}",
                point.band.value,
            )
        )
    for bandwidth, result in study.cm5.items():
        for point in result.points:
            rows.append(
                (
                    f"cm5 bw={bandwidth}",
                    point.processors,
                    point.problem_size,
                    f"{point.mflops:.1f}",
                    f"{point.efficiency:.2f}",
                    point.band.value,
                )
            )
    table = format_table(
        headers=("workload", "P", "N", "MFLOPS", "efficiency", "band"),
        rows=rows,
        title="PPT4: scalability of Cedar CG vs CM-5 banded matvec",
    )
    low, high = study.cedar_mflops_at_32
    footer = (
        f"\nCedar CG at P=32, N>=10K: {low:.0f}..{high:.0f} MFLOPS "
        "(paper: 34..48); CM-5 per-processor rates roughly equivalent"
    )
    return table + footer
