"""Abstract performance metrics used throughout the paper.

"For at least twenty years we have used speedup and efficiency as abstract
measures of performance" (Section 4.3).  The paper measures rate in MFLOPS,
taking floating-point operation counts "from the Cray Hardware Performance
Monitor"; our equivalent is the operation count declared by each workload
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def speedup(serial_seconds: float, parallel_seconds: float) -> float:
    """Speed improvement of a parallel run over the serial run.

    The paper's tables report "speed improvements over the serial execution
    time" of the same code on one CE in scalar mode.
    """
    if serial_seconds <= 0:
        raise ValueError(f"serial time must be positive, got {serial_seconds}")
    if parallel_seconds <= 0:
        raise ValueError(f"parallel time must be positive, got {parallel_seconds}")
    return serial_seconds / parallel_seconds


def efficiency(speedup_value: float, num_processors: int) -> float:
    """Parallel efficiency: speedup divided by processor count."""
    if num_processors < 1:
        raise ValueError(f"processor count must be >= 1, got {num_processors}")
    if speedup_value < 0:
        raise ValueError(f"speedup must be non-negative, got {speedup_value}")
    return speedup_value / num_processors


def mflops(flop_count: float, seconds: float) -> float:
    """Millions of floating-point operations per second."""
    if seconds <= 0:
        raise ValueError(f"time must be positive, got {seconds}")
    if flop_count < 0:
        raise ValueError(f"flop count must be non-negative, got {flop_count}")
    return flop_count / seconds / 1e6


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean, the correct average for rates over a fixed workload.

    Used by the paper to summarize MFLOPS across the Perfect suite
    ("The harmonic mean for the MFLOPS on the YMP/8 is 23.7").
    """
    if not values:
        raise ValueError("harmonic mean of an empty sequence is undefined")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic mean requires strictly positive values")
    return len(values) / sum(1.0 / v for v in values)


@dataclass(frozen=True)
class CodeResult:
    """One code's measured performance on one machine configuration.

    Attributes:
        code: Benchmark code name (e.g. ``"TRFD"``).
        machine: Machine name (e.g. ``"cedar"``, ``"cray-ymp8"``).
        processors: Processor count used for the run.
        serial_seconds: Uniprocessor scalar execution time.
        parallel_seconds: Execution time of the measured version.
        flop_count: Floating-point operations performed (monitor count).
        problem_size: Optional problem-size label for scalability studies.
        version: Label of the program version (e.g. ``"automatable"``).
    """

    code: str
    machine: str
    processors: int
    serial_seconds: float
    parallel_seconds: float
    flop_count: float = 0.0
    problem_size: Optional[int] = None
    version: str = "automatable"

    @property
    def speedup(self) -> float:
        """Speed improvement over the serial run."""
        return speedup(self.serial_seconds, self.parallel_seconds)

    @property
    def efficiency(self) -> float:
        """Speedup divided by processor count."""
        return efficiency(self.speedup, self.processors)

    @property
    def mflops(self) -> float:
        """Delivered MFLOPS of the measured version."""
        return mflops(self.flop_count, self.parallel_seconds)


@dataclass
class Ensemble:
    """An ensemble of code results on one machine, as used by St(P, N, K, e).

    The stability measure is defined "on P processors of an ensemble of
    computations over K codes"; this container holds those K results and
    offers the rate and efficiency views that the methodology consumes.
    """

    machine: str
    processors: int
    results: List[CodeResult] = field(default_factory=list)

    def add(self, result: CodeResult) -> None:
        """Append a code result, validating machine and processor count."""
        if result.machine != self.machine:
            raise ValueError(
                f"result machine {result.machine!r} does not match "
                f"ensemble machine {self.machine!r}"
            )
        if result.processors != self.processors:
            raise ValueError(
                f"result processors {result.processors} do not match "
                f"ensemble processors {self.processors}"
            )
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def codes(self) -> List[str]:
        """Names of the codes in the ensemble, in insertion order."""
        return [r.code for r in self.results]

    def rates(self) -> Dict[str, float]:
        """MFLOPS per code (the paper's rate measure for stability)."""
        return {r.code: r.mflops for r in self.results}

    def efficiencies(self) -> Dict[str, float]:
        """Efficiency per code."""
        return {r.code: r.efficiency for r in self.results}

    def harmonic_mean_mflops(self) -> float:
        """Harmonic mean of the per-code MFLOPS."""
        return harmonic_mean([r.mflops for r in self.results])
