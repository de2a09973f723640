"""Table 2: global memory performance under prefetching.

First-word latency and interarrival time (in CE cycles) for the VL, TM, RK
and CG kernels at 8, 16 and 32 processors, measured by the performance-
monitoring hardware exactly as Section 4.1 describes.  Minimal latency is
8 cycles; minimal interarrival is 1 cycle.  The expected shape: near-
minimal at one cluster, degrading with CE count; RK (256-word blocks,
fully overlapped) degrades fastest; TM and CG least, thanks to their
register-register operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import CedarConfig, active_config
from repro.core.report import format_table
from repro.kernels.common import KernelRun
from repro.kernels.conjugate_gradient import measure_cg
from repro.kernels.rank_update import RankUpdateVersion, measure_rank_update
from repro.kernels.tridiag_matvec import measure_tridiag
from repro.kernels.vector_load import measure_vector_load
from repro.metrics.headline import HeadlineMetric

CE_COUNTS = (8, 16, 32)


def _measure_rk(num_ces: int, config: CedarConfig) -> KernelRun:
    clusters = max(1, num_ces // config.ces_per_cluster)
    return measure_rank_update(RankUpdateVersion.GM_PREFETCH, clusters, config)


def _measure_cg(num_ces: int, config: CedarConfig) -> KernelRun:
    return measure_cg(num_ces, num_ces * 512, config)


KERNELS: Dict[str, Callable[[int, CedarConfig], KernelRun]] = {
    "VL": lambda n, c: measure_vector_load(n, c),
    "TM": lambda n, c: measure_tridiag(n, c),
    "RK": _measure_rk,
    "CG": _measure_cg,
}


@dataclass(frozen=True)
class Table2Cell:
    latency: float
    interarrival: float


@dataclass(frozen=True)
class Table2Result:
    """(kernel, CE count) -> latency/interarrival in cycles."""

    cells: Dict[Tuple[str, int], Table2Cell]

    def latency_series(self, kernel: str) -> List[float]:
        return [self.cells[(kernel, n)].latency for n in CE_COUNTS]

    def interarrival_series(self, kernel: str) -> List[float]:
        return [self.cells[(kernel, n)].interarrival for n in CE_COUNTS]


def units() -> List[str]:
    """Independent machine-run units: one per (kernel, CE count) cell.

    Partitioned execution (``--partitions N``) shards these across worker
    processes; :func:`combine` reassembles them in this declared order, so
    the result is identical for any shard assignment.
    """
    return [f"{name}:{count}" for name in KERNELS for count in CE_COUNTS]


def run_unit(unit: str, config: Optional[CedarConfig] = None) -> Table2Cell:
    """Measure one Table 2 cell (an independent simulator run)."""
    if config is None:
        config = active_config()
    name, count_text = unit.split(":")
    result = KERNELS[name](int(count_text), config)
    if result.first_word_latency is None:
        raise RuntimeError(f"{name} produced no prefetch statistics")
    return Table2Cell(
        latency=result.first_word_latency,
        interarrival=result.interarrival or 0.0,
    )


def combine(results: Dict[str, Table2Cell]) -> Table2Result:
    """Assemble per-unit cells into the table, in declared unit order."""
    cells: Dict[Tuple[str, int], Table2Cell] = {}
    for name in KERNELS:
        for count in CE_COUNTS:
            cells[(name, count)] = results[f"{name}:{count}"]
    return Table2Result(cells=cells)


def run(config: Optional[CedarConfig] = None) -> Table2Result:
    return combine({unit: run_unit(unit, config) for unit in units()})


def headline_metrics(result: Table2Result) -> List[HeadlineMetric]:
    """Every Table 2 cell.  The scan's numbers are unreadable, so only the
    stated minima serve as paper targets (latency 8 and interarrival 1 at
    the near-uncontended 8-CE points); the rest are snapshot-tracked."""
    metrics = []
    for (kernel, count), cell in sorted(result.cells.items()):
        metrics.append(
            HeadlineMetric(
                name=f"latency_{kernel.lower()}_{count}ce",
                value=cell.latency,
                unit="cycles",
                target=8.0 if count == 8 else None,
                note=f"Table 2 first-word latency, {kernel} at {count} CEs",
            )
        )
        metrics.append(
            HeadlineMetric(
                name=f"interarrival_{kernel.lower()}_{count}ce",
                value=cell.interarrival,
                unit="cycles",
                target=1.0 if count == 8 else None,
                note=f"Table 2 interarrival, {kernel} at {count} CEs",
            )
        )
    return metrics


def claims(result: Table2Result) -> Dict[str, bool]:
    """Table 2's shape: near-minimal at one cluster, degrading with CE
    count; RK degrades fastest; the register-register TM beats VL."""
    outcome = {}
    for kernel in KERNELS:
        latency = result.latency_series(kernel)
        inter = result.interarrival_series(kernel)
        outcome.update({
            f"Table 2: {kernel} latency at 8 CEs <= 14 cycles (minimum 8)":
                latency[0] <= 14.0,
            f"Table 2: {kernel} interarrival at 8 CEs <= 1.8 cycles "
            "(minimum 1)": inter[0] <= 1.8,
            f"Table 2: {kernel} latency grows from 8 to 32 CEs":
                latency[2] > latency[0],
            f"Table 2: {kernel} interarrival grows from 8 to 32 CEs":
                inter[2] > inter[0],
        })
    at_32 = {kernel: result.interarrival_series(kernel)[2] for kernel in KERNELS}
    for gentler in ("TM", "CG"):
        outcome[f"Table 2: RK interarrival at 32 CEs >= {gentler}'s"] = (
            at_32["RK"] >= at_32[gentler]
        )
    outcome["Table 2: TM interarrival at 32 CEs <= VL's + 0.5"] = (
        at_32["TM"] <= at_32["VL"] + 0.5
    )
    return outcome


def render(result: Table2Result) -> str:
    rows = []
    for kernel in KERNELS:
        latency = result.latency_series(kernel)
        inter = result.interarrival_series(kernel)
        rows.append(
            (
                kernel,
                *(f"{l:.1f}" for l in latency),
                *(f"{i:.2f}" for i in inter),
            )
        )
    return format_table(
        headers=(
            "kernel",
            "lat@8", "lat@16", "lat@32",
            "inter@8", "inter@16", "inter@32",
        ),
        rows=rows,
        title=(
            "Table 2: global memory performance (cycles; min latency 8, "
            "min interarrival 1)"
        ),
    )
