"""Registry mapping paper artifact ids to experiment drivers.

Each entry also declares the experiment's *headline metrics* -- the
numbers that are the table or figure, paired with the paper-quoted targets
where the scan is legible -- which `cedar-repro bench` snapshots as the
fidelity section of ``BENCH_<n>.json``.

The registry names each driver module and imports it on first use, so
listing the experiments, or running one of them, loads no other driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional

from repro.metrics.headline import HeadlineMetric


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
    #: The driver module the callables live in, imported on first call;
    #: ``None`` for an entry built from plain callables.
    module: Optional[str] = None

    def load(self) -> None:
        """Import the driver module now: a process about to fork workers
        that run this experiment loads it once, not once per worker."""
        if self.module is not None:
            import_module(self.module)


def _driver(
    key: str, module: str, description: str, quick: bool = False,
    partitioned: bool = False,
) -> Experiment:
    """An entry whose callables are ``repro.experiments.<module>``'s
    functions, imported on first call."""
    path = f"repro.experiments.{module}"

    def function(name: str) -> Callable:
        def call(*args):
            return getattr(import_module(path), name)(*args)

        return call

    parts = ("units", "run_unit", "combine") if partitioned else ()
    return Experiment(
        key,
        description,
        function("run"),
        function("render"),
        function("headline_metrics"),
        quick=quick,
        module=path,
        **{name: function(name) for name in parts},
    )


EXPERIMENTS: Dict[str, Experiment] = {
    e.key: e
    for e in (
        _driver(
            "table1", "table1",
            "MFLOPS for rank-64 update (GM/no-pref, GM/pref, GM/cache)",
            partitioned=True,
        ),
        _driver(
            "table2", "table2",
            "Global memory latency/interarrival for VL/TM/RK/CG",
            partitioned=True,
        ),
        _driver(
            "table3", "table3",
            "Perfect Benchmarks: times, MFLOPS, speed improvements",
            quick=True,
        ),
        _driver(
            "table4", "table4", "Manually optimized Perfect codes", quick=True
        ),
        _driver(
            "table5", "table5",
            "Instability In(13, e) on Cedar, Cray 1, Y-MP/8",
            quick=True,
        ),
        _driver(
            "table6", "table6", "Restructuring efficiency bands (PPT3)",
            quick=True,
        ),
        _driver(
            "figure3", "figure3",
            "YMP/8 vs Cedar efficiency scatter (manual codes)",
            quick=True,
        ),
        _driver(
            "ppt4", "ppt4_scalability",
            "Scalability: Cedar CG vs CM-5 banded matvec",
            partitioned=True,
        ),
        _driver(
            "ppt5", "ppt5_scaling",
            "Scaled-up Cedar reimplementation study (the deferred PPT5)",
            quick=True,
        ),
        _driver(
            "restructuring", "restructuring",
            "KAP-1988 vs automatable restructurer on a loop-nest gallery",
            quick=True,
        ),
        _driver(
            "network-ablation", "network_ablation",
            "Degradation vs implementation constraints [Turn93]",
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
