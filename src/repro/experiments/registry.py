"""Registry mapping paper artifact ids to experiment drivers.

Each entry also declares the experiment's *headline metrics* -- the
numbers that are the table or figure, paired with the paper-quoted targets
where the scan is legible -- which `cedar-repro bench` snapshots as the
fidelity section of ``BENCH_<n>.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.metrics.headline import HeadlineMetric

from repro.experiments import (
    figure3,
    network_ablation,
    ppt4_scalability,
    ppt5_scaling,
    restructuring,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)


def _no_headline(result: object) -> List[HeadlineMetric]:
    return []


@dataclass(frozen=True)
class Experiment:
    """One regenerable artifact of the paper."""

    key: str
    description: str
    run: Callable[[], object]
    render: Callable[[object], str]
    #: Maps a run's result to its declared headline metrics (paper targets
    #: included); the bench harness snapshots these for fidelity tracking.
    headline: Callable[[object], List[HeadlineMetric]] = _no_headline
    #: Whether the driver is cheap enough for `cedar-repro bench --quick`
    #: (analytic model or sub-minute cycle simulation).
    quick: bool = False
    #: Optional unit decomposition for partitioned execution
    #: (``--partitions N``): ``units()`` names independent machine-run
    #: units, ``run_unit(name)`` executes one, and ``combine({name:
    #: result})`` reassembles exactly what ``run()`` returns.  Experiments
    #: without a decomposition run as a single unit.
    units: Optional[Callable[[], List[str]]] = None
    run_unit: Optional[Callable[[str], object]] = None
    combine: Optional[Callable[[Dict[str, object]], object]] = None


EXPERIMENTS: Dict[str, Experiment] = {
    e.key: e
    for e in (
        Experiment(
            "table1",
            "MFLOPS for rank-64 update (GM/no-pref, GM/pref, GM/cache)",
            table1.run,
            table1.render,
            table1.headline_metrics,
            units=table1.units,
            run_unit=table1.run_unit,
            combine=table1.combine,
        ),
        Experiment(
            "table2",
            "Global memory latency/interarrival for VL/TM/RK/CG",
            table2.run,
            table2.render,
            table2.headline_metrics,
            units=table2.units,
            run_unit=table2.run_unit,
            combine=table2.combine,
        ),
        Experiment(
            "table3",
            "Perfect Benchmarks: times, MFLOPS, speed improvements",
            table3.run,
            table3.render,
            table3.headline_metrics,
            quick=True,
        ),
        Experiment(
            "table4",
            "Manually optimized Perfect codes",
            table4.run,
            table4.render,
            table4.headline_metrics,
            quick=True,
        ),
        Experiment(
            "table5",
            "Instability In(13, e) on Cedar, Cray 1, Y-MP/8",
            table5.run,
            table5.render,
            table5.headline_metrics,
            quick=True,
        ),
        Experiment(
            "table6",
            "Restructuring efficiency bands (PPT3)",
            table6.run,
            table6.render,
            table6.headline_metrics,
            quick=True,
        ),
        Experiment(
            "figure3",
            "YMP/8 vs Cedar efficiency scatter (manual codes)",
            figure3.run,
            figure3.render,
            figure3.headline_metrics,
            quick=True,
        ),
        Experiment(
            "ppt4",
            "Scalability: Cedar CG vs CM-5 banded matvec",
            ppt4_scalability.run,
            ppt4_scalability.render,
            ppt4_scalability.headline_metrics,
            units=ppt4_scalability.units,
            run_unit=ppt4_scalability.run_unit,
            combine=ppt4_scalability.combine,
        ),
        Experiment(
            "ppt5",
            "Scaled-up Cedar reimplementation study (the deferred PPT5)",
            ppt5_scaling.run,
            ppt5_scaling.render,
            ppt5_scaling.headline_metrics,
            quick=True,
        ),
        Experiment(
            "restructuring",
            "KAP-1988 vs automatable restructurer on a loop-nest gallery",
            restructuring.run,
            restructuring.render,
            restructuring.headline_metrics,
            quick=True,
        ),
        Experiment(
            "network-ablation",
            "Degradation vs implementation constraints [Turn93]",
            network_ablation.run,
            network_ablation.render,
            network_ablation.headline_metrics,
            quick=True,
        ),
    )
}

#: Keys of the sub-minute experiments `cedar-repro bench --quick` runs.
QUICK_EXPERIMENTS: List[str] = [
    key for key in sorted(EXPERIMENTS) if EXPERIMENTS[key].quick
]


def get_experiment(key: str) -> Experiment:
    try:
        return EXPERIMENTS[key]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {key!r}; known: {known}") from None
