"""The fidelity flight recorder behind ``cedar-repro bench``.

One bench run executes a set of experiments and records two sections per
experiment into a schema-versioned ``BENCH_<n>.json`` snapshot:

* **fidelity** -- the experiment's declared headline metrics (measured vs
  paper-quoted targets, see :mod:`repro.metrics.headline`);
* **machine** -- simulated-machine measurements drained from the trace bus
  and performance monitors (busy cycles, counter totals, Table 2 histogram
  summaries).

Both are deterministic, so the snapshot is byte-identical across runs and
for any ``--jobs`` count.  The simulator's own speed is not recorded here:
host wall-clock is measured by ``perfbench``, under repeated runs.

Each run also checks the experiment's *claims* (the paper's shape
statements, see :mod:`repro.experiments.registry`) on the result it
already has; they need no baseline and are not part of the snapshot.
:func:`compare_snapshots` turns every false claim, and every metric that
drifted from a prior snapshot by more than :data:`TOLERANCE`, into a
``fail`` finding, which makes the CLI exit non-zero so CI can gate on it.
"""

from __future__ import annotations

import gc
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import BenchError
from repro.experiments.registry import get_experiment
from repro.metrics.collector import MonitorCatcher, collect_tracer
from repro.metrics.registry import MetricsRegistry
from repro.parallel import parallel_map
from repro.partition import run_partitioned
from repro.trace import Tracer, tracing
from repro.version import version_fingerprint

SCHEMA = "cedar-repro-bench"
#: Version 2 dropped version 1's host wall-clock ``self_profile`` section
#: and its ``traced`` flag; a version-1 snapshot still loads as a baseline
#: (its ``fidelity`` and ``machine`` sections compare, the rest is ignored).
SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, SCHEMA_VERSION)

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: Relative drift of a ``fidelity`` or ``machine`` metric, against the
#: baseline snapshot, beyond which the metric is a failure.
TOLERANCE = 1e-6

#: ``{experiment key: {claim text: whether it holds}}`` of one bench run.
Claims = Dict[str, Dict[str, bool]]


# ---------------------------------------------------------------------------
# Running experiments into a snapshot
# ---------------------------------------------------------------------------


def bench_experiment(key: str) -> Tuple[Dict[str, object], Dict[str, bool]]:
    """Run one experiment: its snapshot section, and its claims checked on
    the same result.

    The run attaches to a counters-only tracer: the ``machine`` section
    reads only the bus's exact aggregates, never its timeline.
    """
    experiment = get_experiment(key)
    tracer = Tracer(max_records=0)
    catcher = MonitorCatcher(tracer)
    with tracing(tracer):
        result = run_partitioned(key, None, instrumented=False).result

    registry = MetricsRegistry()
    collect_tracer(registry, tracer)
    catcher.collect_into(registry)
    section = {
        "description": experiment.description,
        "fidelity": [metric.as_dict() for metric in experiment.headline(result)],
        "machine": registry.as_flat_dict(),
    }
    return section, experiment.claims(result)


def build_snapshot(
    keys: Sequence[str],
    snapshot_index: int,
    progress=None,
    jobs: int = 1,
) -> Tuple[Dict[str, object], Claims]:
    """Run ``keys``: the full snapshot document, and each one's claims.

    With ``jobs > 1`` experiments run in worker processes.  Each experiment
    is independent (its own engine, tracer and monitors), and sections are
    assembled in the caller's key order -- never completion order -- so the
    snapshot is byte-identical for any job count.
    """
    runs = {}
    if jobs > 1 and len(keys) > 1:
        tasks = [(key, key) for key in keys]
        for key, run in parallel_map(
            bench_experiment, tasks, jobs=min(jobs, len(keys))
        ):
            if progress is not None:
                progress(key)
            runs[key] = run
    else:
        for key in keys:
            if progress is not None:
                progress(key)
            runs[key] = bench_experiment(key)
            gc.collect()  # bound memory between experiments
    snapshot = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "snapshot": snapshot_index,
        "code_version": version_fingerprint(),
        # deterministic order regardless of completion
        "experiments": {key: runs[key][0] for key in keys},
    }
    return snapshot, {key: runs[key][1] for key in keys}


# ---------------------------------------------------------------------------
# Snapshot files: BENCH_<n>.json numbering, load/save
# ---------------------------------------------------------------------------


def existing_snapshots(directory: str) -> List[Tuple[int, str]]:
    """Sorted (index, path) pairs of the BENCH_*.json files in a directory."""
    found = []
    try:
        entries = sorted(os.listdir(directory))
    except FileNotFoundError:
        raise BenchError(f"snapshot directory {directory!r} does not exist")
    for entry in entries:
        match = _SNAPSHOT_RE.match(entry)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, entry)))
    return sorted(found)


def latest_snapshot_path(directory: str) -> Optional[str]:
    snapshots = existing_snapshots(directory)
    return snapshots[-1][1] if snapshots else None


def next_snapshot_index(directory: str) -> int:
    snapshots = existing_snapshots(directory)
    return snapshots[-1][0] + 1 if snapshots else 0


def load_snapshot(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            snapshot = json.load(stream)
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot load snapshot {path}: {error}") from None
    if not isinstance(snapshot, dict) or snapshot.get("schema") != SCHEMA:
        raise BenchError(f"{path} is not a {SCHEMA} snapshot")
    version = snapshot.get("schema_version")
    if version not in _READABLE_VERSIONS:
        raise BenchError(
            f"{path} has schema version {version!r}; this build reads "
            f"versions {', '.join(map(str, _READABLE_VERSIONS))}"
        )
    return snapshot


def save_snapshot(snapshot: Mapping[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(snapshot, stream, indent=2, sort_keys=True)
        stream.write("\n")


# ---------------------------------------------------------------------------
# Regression comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One false claim, or one compared metric that moved (or
    appeared/disappeared); a claim's ``metric`` is its text."""

    experiment: str
    metric: str
    metric_class: str            # fidelity | machine | claim
    severity: str                # fail | info
    baseline: Optional[float]
    current: Optional[float]
    rel_change: Optional[float]  # signed (current-baseline)/|baseline|

    def describe(self) -> str:
        if self.metric_class == "claim":
            return f"{self.experiment}: claim does not hold: {self.metric}"
        if self.baseline is None:
            return (
                f"{self.experiment}/{self.metric}: new metric "
                f"(now {self.current:g})"
            )
        if self.current is None:
            return (
                f"{self.experiment}/{self.metric}: metric disappeared "
                f"(was {self.baseline:g})"
            )
        percent = (self.rel_change or 0.0) * 100.0
        return (
            f"{self.experiment}/{self.metric} [{self.metric_class}]: "
            f"{self.baseline:g} -> {self.current:g} ({percent:+.2f}%)"
        )


@dataclass
class RegressionReport:
    """All findings of one bench run: its false claims and, given a
    baseline snapshot, its drift from it."""

    baseline_snapshot: Optional[int]  # None: claims only
    current_snapshot: int
    compared: int = 0
    claims: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def failures(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        checked = f"{self.claims} claim(s) checked"
        if self.baseline_snapshot is None:
            head = f"Claims report: snapshot {self.current_snapshot}, {checked}"
        else:
            head = (
                f"Regression report: snapshot {self.baseline_snapshot} -> "
                f"{self.current_snapshot}, {self.compared} metric(s) "
                f"compared, {checked}"
            )
        lines = [f"{head}: {len(self.failures)} failure(s)"]
        for title, group in (
            ("FAIL", self.failures),
            ("info", [f for f in self.findings if f.severity == "info"]),
        ):
            for finding in group:
                lines.append(f"  {title}  {finding.describe()}")
        if not self.findings:
            lines.append(
                "  every claim holds" if self.baseline_snapshot is None
                else "  no drift beyond tolerance"
            )
        return "\n".join(lines)


def _relative_change(baseline: float, current: float) -> float:
    if baseline == current:
        return 0.0
    return (current - baseline) / max(abs(baseline), 1e-12)


def _compare_class(
    report: RegressionReport,
    experiment: str,
    metric_class: str,
    baseline: Mapping[str, float],
    current: Mapping[str, float],
) -> None:
    for name in sorted(set(baseline) | set(current)):
        old = baseline.get(name)
        new = current.get(name)
        if old is None or new is None:
            report.findings.append(
                Finding(experiment, name, metric_class, "info", old, new, None)
            )
            continue
        report.compared += 1
        rel = _relative_change(old, new)
        if abs(rel) > TOLERANCE:
            report.findings.append(
                Finding(experiment, name, metric_class, "fail", old, new, rel)
            )


def _fidelity_values(section: Mapping[str, object]) -> Dict[str, float]:
    values = {}
    for metric in section.get("fidelity", []):
        values[str(metric["name"])] = float(metric["value"])
    return values


def _numeric(mapping: Mapping[str, object]) -> Dict[str, float]:
    return {
        k: float(v)
        for k, v in mapping.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def compare_snapshots(
    baseline: Optional[Mapping[str, object]],
    current: Mapping[str, object],
    claims: Optional[Claims] = None,
) -> RegressionReport:
    """Check ``claims``, then diff ``current`` against ``baseline`` metric
    by metric.

    Every false claim is a failure; with no baseline that is the whole
    report.  Only experiments present in both snapshots are compared, so a
    ``--quick`` run diffs cleanly against a full baseline.  Metrics present
    on one side only are reported as informational findings.
    """
    claims = claims or {}
    report = RegressionReport(
        baseline_snapshot=(
            None if baseline is None else int(baseline.get("snapshot", -1))
        ),
        current_snapshot=int(current.get("snapshot", -1)),
        claims=sum(len(outcomes) for outcomes in claims.values()),
    )
    for key, outcomes in claims.items():
        for text, holds in outcomes.items():
            if not holds:
                report.findings.append(
                    Finding(key, text, "claim", "fail", None, None, None)
                )
    if baseline is None:
        return report
    base_experiments = baseline.get("experiments", {})
    cur_experiments = current.get("experiments", {})
    for key in sorted(set(base_experiments) & set(cur_experiments)):
        base_section = base_experiments[key]
        cur_section = cur_experiments[key]
        _compare_class(
            report, key, "fidelity",
            _fidelity_values(base_section), _fidelity_values(cur_section),
        )
        _compare_class(
            report, key, "machine",
            _numeric(base_section.get("machine", {})),
            _numeric(cur_section.get("machine", {})),
        )
    return report
