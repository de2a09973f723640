"""Shared helpers: statistics, the percentile rule, host facts, memory.

Nothing here imports :mod:`repro`, so the self-tests and the failure path
of ``run.py`` work in a directory that holds only the benchmark.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from statistics import fmean, median
from typing import Dict, Iterator, List, Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: ... and only when it repeats within this share across the two
#: interleaved halves of the samples.
REPEAT_TOLERANCE = 0.10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (0 < q < 1), or ``None`` when too few
    samples lie beyond it to trust it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def reported_percentile(samples: Sequence[float], q: float) -> Dict[str, object]:
    """The percentile rule: ``value`` is ``None`` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it *and* it repeats
    within :data:`REPEAT_TOLERANCE` on the even and odd halves."""
    value = percentile(samples, q)
    halves = [percentile(samples[0::2], q), percentile(samples[1::2], q)]
    repeats = (
        value is not None
        and None not in halves
        and abs(halves[0] - halves[1]) <= REPEAT_TOLERANCE * value
    )
    return {"value": value if repeats else None, "samples": len(samples)}


#: Seconds :func:`probe_speed` takes on the reference host (a 2-core x86_64
#: VM running Python 3.11.7) when its core runs at full speed.
PROBE_REFERENCE_S = 1.5e-4

#: How often :class:`HostSpeed` samples the core's speed during an operation.
PROBE_PERIOD_S = 0.01


def probe_speed() -> float:
    """Host seconds of a fixed, allocation-free pure-Python loop."""
    x = 1
    began = time.perf_counter()
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - began


class HostSpeed:
    """Scales host time to the reference host's core speed.

    On a shared host each core's speed flips between two levels about
    1.6x apart, independently per core and every few seconds; no run
    length averages that away.  While an operation runs, a timer signal
    samples the speed of the core it runs on every :data:`PROBE_PERIOD_S`
    (about 2% overhead).  The operation's own time (wall minus probes)
    times ``PROBE_REFERENCE_S / mean(probe)`` is what it would take on the
    reference core.  The probe is the benchmark's own code, so a change to
    the program cannot move it.  Call from the main thread only.
    """

    def __init__(self) -> None:
        self.probe_means: List[float] = []

    def time(self, run):
        """(result, own host seconds, scaled seconds) of ``run()``."""
        gc.collect()
        samples: List[float] = []
        previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: samples.append(probe_speed())
        )
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        began = time.perf_counter()
        try:
            result = run()
        finally:
            wall = time.perf_counter() - began
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        own = wall - sum(samples)
        speed = fmean(samples) if samples else probe_speed()
        self.probe_means.append(speed)
        return result, own, own * PROBE_REFERENCE_S / speed


class Spans:
    """Host-time spans recorded from the benchmark's own files, by name."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        began = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - began
            self.durations.setdefault(name, []).append(elapsed)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def median(self, name: str) -> float:
        values = self.durations.get(name)
        return median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_kb(pid: int, field: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` (VmRSS, VmHWM), or 0."""
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def python_env(src: str) -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


@contextmanager
def one_core() -> Iterator[None]:
    """Confine this process, and every process it starts, to one core, so
    that :class:`HostSpeed` samples the core the child runs on."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def time_cold_start(src: str, code: str, repeats: int) -> float:
    """Median scaled seconds for a fresh interpreter to run ``code`` -- the
    start-up a user pays before the first simulation or request."""
    speed = HostSpeed()
    command = [sys.executable, "-c", code]
    with one_core():
        samples = [
            speed.time(lambda: subprocess.run(
                command, env=python_env(src), check=True,
                stdout=subprocess.DEVNULL, timeout=60,
            ))[2]
            for _ in range(repeats)
        ]
    return median(samples)


def host_facts(fingerprint: str) -> Dict[str, object]:
    """What a result must carry so cross-host comparisons get flagged."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "code_version": fingerprint,
    }


#: Host facts that must agree before two results may be compared.
HOST_KEYS = ("nproc", "python", "platform", "machine")
