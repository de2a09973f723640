"""The five Practical Parallelism Tests (Section 4.3).

The paper's "laboratory level" criterion is the Fundamental Principle of
Parallel Processing: clock speed is interchangeable with parallelism while
(A) maintaining delivered performance that is (B) stable over a class of
computations.  PPT1 and PPT2 operationalize (A) and (B); PPT3 and PPT4 add
the commercial criteria of programmability and scalability.  PPT5
(technology rescalability) is a design-level judgment the paper explicitly
defers ("which we shall not deal with further, in this paper"); we expose it
only as a checklist record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.bands import Band, census, classify_efficiency
from repro.core.metrics import Ensemble
from repro.core.stability import (
    SCALABILITY_THRESHOLD,
    STABILITY_THRESHOLD,
    instability_profile,
    minimal_exclusions_for_stability,
)


@dataclass(frozen=True)
class PPT1Result:
    """PPT1, Delivered Performance: bands of a useful set of codes.

    "We conclude ... both the Cray YMP and Cedar are on the average
    acceptable, delivering intermediate parallel performance and thus pass
    PPT1" -- the test passes when no more than a small number of codes fall
    in the unacceptable band.
    """

    machine: str
    processors: int
    bands: Mapping[str, Band]
    max_unacceptable: int = 1

    @property
    def unacceptable_codes(self) -> List[str]:
        return [c for c, b in self.bands.items() if b is Band.UNACCEPTABLE]

    @property
    def passed(self) -> bool:
        return len(self.unacceptable_codes) <= self.max_unacceptable


@dataclass(frozen=True)
class PPT2Result:
    """PPT2, Stable Performance: instability within the workstation range."""

    machine: str
    processors: int
    instability_by_exclusions: Mapping[int, float]
    exclusions_needed: Optional[int]
    threshold: float = STABILITY_THRESHOLD
    max_exclusions: int = 2

    @property
    def passed(self) -> bool:
        """Stable with at most ``max_exclusions`` outliers removed.

        "two exceptions are sufficient on the Cray 1 and Cedar, whereas the
        YMP needs six ... Thus, the YMP cannot be judged as passing PPT2".
        """
        return (
            self.exclusions_needed is not None
            and self.exclusions_needed <= self.max_exclusions
        )


@dataclass(frozen=True)
class PPT3Result:
    """PPT3, Portability/Programmability via compiler-delivered efficiency.

    Judged on the band census of compiler-produced (or automatable)
    versions; the paper's Table 6 view.
    """

    machine: str
    processors: int
    high: int
    intermediate: int
    unacceptable: int

    @property
    def acceptable_fraction(self) -> float:
        total = self.high + self.intermediate + self.unacceptable
        if total == 0:
            raise ValueError("PPT3 requires at least one code")
        return (self.high + self.intermediate) / total

    @property
    def passed(self) -> bool:
        """More than half of the codes reach an acceptable compiler level."""
        return self.acceptable_fraction > 0.5


@dataclass(frozen=True)
class ScalabilityPoint:
    """One (processors, problem_size) observation for PPT4."""

    processors: int
    problem_size: int
    mflops: float
    efficiency: float

    @property
    def band(self) -> Band:
        return classify_efficiency(self.efficiency, self.processors)


@dataclass(frozen=True)
class PPT4Result:
    """PPT4, Code and Architecture Scalability.

    A system is scalable in a range of processor counts and problem sizes
    where (a) efficiency stays in the High or Intermediate band and (b) the
    rate varies by no more than an instability of 2 as data size varies
    (``0.5 <= St(P, N, 1, 0) <= 1``).
    """

    machine: str
    points: Sequence[ScalabilityPoint]
    threshold: float = SCALABILITY_THRESHOLD

    def points_at(
        self, processors: int, min_problem_size: int = 0
    ) -> List[ScalabilityPoint]:
        return [
            p
            for p in self.points
            if p.processors == processors and p.problem_size >= min_problem_size
        ]

    def instability_over_sizes(
        self, processors: int, min_problem_size: int = 0
    ) -> float:
        """Rate variation as the data size alone varies at fixed P."""
        rates = [p.mflops for p in self.points_at(processors, min_problem_size)]
        if len(rates) < 2:
            raise ValueError(
                f"need >= 2 problem sizes at P={processors} to judge scalability"
            )
        return max(rates) / min(rates)

    def band_at(self, processors: int, min_problem_size: int = 0) -> Band:
        """Worst band observed across problem sizes at fixed P."""
        order = [Band.HIGH, Band.INTERMEDIATE, Band.UNACCEPTABLE]
        bands = [p.band for p in self.points_at(processors, min_problem_size)]
        if not bands:
            raise ValueError(f"no observations at P={processors}")
        return max(bands, key=order.index)

    def scalable_processor_counts(self, min_problem_size: int = 0) -> List[int]:
        """Processor counts at which both PPT4 criteria are satisfied.

        The paper judges scalability *over a range* of problem sizes ("the
        system is scalable in a range of processor counts and problem sizes
        where these criteria are satisfied"); ``min_problem_size`` selects
        that range -- debugging-sized runs below it are excluded, exactly as
        the paper's reading excludes them from the high-performance claim.
        """
        counts = sorted({p.processors for p in self.points})
        passing = []
        for processors in counts:
            if len(self.points_at(processors, min_problem_size)) < 2:
                continue
            in_band = (
                self.band_at(processors, min_problem_size)
                is not Band.UNACCEPTABLE
            )
            stable = (
                self.instability_over_sizes(processors, min_problem_size)
                <= self.threshold
            )
            if in_band and stable:
                passing.append(processors)
        return passing

    @property
    def passed(self) -> bool:
        return bool(self.scalable_processor_counts())


@dataclass(frozen=True)
class PPT5Checklist:
    """PPT5, Technology and Scalable Reimplementability (design checklist).

    The paper collects simulation data toward PPT5 but does not evaluate it;
    we record the qualitative answers so reports can display them.
    """

    machine: str
    larger_processor_counts: bool
    new_technology: bool
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.larger_processor_counts and self.new_technology


def evaluate_ppt1(ensemble: Ensemble, max_unacceptable: int = 1) -> PPT1Result:
    """Classify every code of an ensemble and apply the PPT1 judgment."""
    bands = {
        code: classify_efficiency(eff, ensemble.processors)
        for code, eff in ensemble.efficiencies().items()
    }
    return PPT1Result(
        machine=ensemble.machine,
        processors=ensemble.processors,
        bands=bands,
        max_unacceptable=max_unacceptable,
    )


def evaluate_ppt2(
    ensemble: Ensemble,
    exclusion_counts: Sequence[int] = (0, 2, 6),
    threshold: float = STABILITY_THRESHOLD,
    max_exclusions: int = 2,
) -> PPT2Result:
    """Compute the instability profile and minimal exclusions for PPT2."""
    rates = ensemble.rates()
    profile = instability_profile(rates, exclusion_counts)
    try:
        needed = minimal_exclusions_for_stability(rates, threshold)
    except ValueError:
        needed = None
    return PPT2Result(
        machine=ensemble.machine,
        processors=ensemble.processors,
        instability_by_exclusions=profile,
        exclusions_needed=needed,
        threshold=threshold,
        max_exclusions=max_exclusions,
    )


def evaluate_ppt3(ensemble: Ensemble) -> PPT3Result:
    """Band census of compiler-delivered efficiencies (Table 6 view)."""
    tally = census(ensemble.efficiencies(), ensemble.processors)
    return PPT3Result(
        machine=ensemble.machine,
        processors=ensemble.processors,
        high=tally.high,
        intermediate=tally.intermediate,
        unacceptable=tally.unacceptable,
    )


def evaluate_ppt4(
    machine: str,
    points: Sequence[ScalabilityPoint],
    threshold: float = SCALABILITY_THRESHOLD,
) -> PPT4Result:
    """Bundle scalability observations into a PPT4 judgment."""
    if not points:
        raise ValueError("PPT4 requires at least one observation")
    return PPT4Result(machine=machine, points=tuple(points), threshold=threshold)


@dataclass
class PracticalParallelismReport:
    """All PPT verdicts for one machine, renderable by :mod:`repro.core.report`."""

    machine: str
    ppt1: Optional[PPT1Result] = None
    ppt2: Optional[PPT2Result] = None
    ppt3: Optional[PPT3Result] = None
    ppt4: Optional[PPT4Result] = None
    ppt5: Optional[PPT5Checklist] = None
    notes: Dict[str, str] = field(default_factory=dict)

    def verdicts(self) -> Dict[str, Optional[bool]]:
        """Pass/fail per test; None where the test was not evaluated."""
        return {
            "PPT1": self.ppt1.passed if self.ppt1 else None,
            "PPT2": self.ppt2.passed if self.ppt2 else None,
            "PPT3": self.ppt3.passed if self.ppt3 else None,
            "PPT4": self.ppt4.passed if self.ppt4 else None,
            "PPT5": self.ppt5.passed if self.ppt5 else None,
        }
