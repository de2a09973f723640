"""The perf/fidelity flight recorder behind ``cedar-repro bench``.

One bench run executes a set of experiments, records three sections per
experiment into a schema-versioned ``BENCH_<n>.json`` snapshot:

* **fidelity** -- the experiment's declared headline metrics (measured vs
  paper-quoted targets, see :mod:`repro.metrics.headline`);
* **machine** -- simulated-machine measurements drained from the trace bus
  and performance monitors (busy cycles, counter totals, Table 2 histogram
  summaries);
* **self_profile** -- measurements of the *simulator itself* (wall-clock,
  events processed, events/sec, per-component busy-cycle attribution), in
  the spirit of throughput-first simulator evaluations.

Given a prior snapshot, :func:`compare_snapshots` produces a regression
report with noise-aware, per-class relative tolerances:

* ``fidelity`` drift **hard-fails** -- the simulation is deterministic, so
  any change beyond the (tight) tolerance means the reproduction moved;
* ``machine`` drift **fails** by default too (event counts and busy cycles
  are deterministic), under its own tolerance;
* ``self_profile`` drift only **warns**, direction-aware (slower wall
  clock or lower events/sec), because wall-clock is host noise.

Severity of a finding maps to the CLI exit code: any ``fail`` finding
exits non-zero so CI can gate on it.
"""

from __future__ import annotations

import gc
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import BenchError
from repro.metrics.collector import MonitorCatcher, collect_tracer
from repro.metrics.registry import MetricsRegistry
from repro.parallel import parallel_map
from repro.trace import Tracer, tracing
from repro.version import version_fingerprint

SCHEMA = "cedar-repro-bench"
SCHEMA_VERSION = 1

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: (relative tolerance, severity, direction) per metric class.  Direction
#: ``0`` flags movement either way; ``+1`` flags decreases (higher is
#: better); ``-1`` flags increases (lower is better).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "fidelity": 1e-6,
    "machine": 1e-6,
    "self_profile": 0.5,
}

#: Which self-profile series are compared, and which way is worse.
_PROFILE_DIRECTION: Dict[str, int] = {
    "wall_seconds": -1,          # more seconds = slower simulator
    "events_per_sec": +1,        # fewer events/sec = slower simulator
    "trace_overhead_ratio": -1,  # larger share of wall in instrumentation
    # Partitioned-execution throughput (``bench --partitions N``); absent
    # from older snapshots, so first appearance diffs as an info finding.
    "partitioned_events_per_sec": +1,
}


# ---------------------------------------------------------------------------
# Running experiments into a snapshot
# ---------------------------------------------------------------------------


def _component_group(component: str) -> str:
    return component.split(".", 1)[0]


def bench_experiment(key: str, trace: bool = True) -> Dict[str, object]:
    """Run one experiment and build its snapshot section.

    With ``trace=False`` the run skips timeline recording (zero-overhead
    path); fidelity metrics are computed from the result alone, so the
    section is still complete minus the bus-derived machine series.
    """
    # Imported here, not at module top: experiments.registry imports
    # repro.metrics.headline, so a top-level import would be circular.
    from repro.experiments.registry import get_experiment
    from repro.partition import run_partitioned

    experiment = get_experiment(key)
    tracer = Tracer(enabled=trace)
    catcher = MonitorCatcher(tracer)
    # The executor pauses the cyclic garbage collector around the timed
    # region, so collector pauses do not eat into simulator throughput.
    with tracing(tracer):
        run = run_partitioned(key, None, instrumented=False)
    result = run.result
    wall_seconds = float(run.telemetry["wall_seconds"])

    fidelity = [metric.as_dict() for metric in experiment.headline(result)]

    registry = MetricsRegistry()
    collect_tracer(registry, tracer)
    catcher.collect_into(registry)
    machine = registry.as_flat_dict()

    busy = tracer.busy_cycles()
    totals = tracer.counter_totals()
    events = sum(
        counters.get("events_dispatched", 0) for counters in totals.values()
    )
    profile: Dict[str, object] = {"wall_seconds": wall_seconds}
    if events:
        profile["events_processed"] = events
        profile["events_per_sec"] = events / wall_seconds if wall_seconds else 0.0
    skipped = totals.get("engine", {}).get("idle_cycles_skipped", 0)
    if skipped:
        profile["idle_cycles_skipped"] = skipped
    if trace and tracer.records_seen:
        # Share of wall-clock spent appending trace records (calibrated
        # per store class, outside the timed region above).
        overhead = tracer.overhead_estimate(wall_seconds)
        profile["trace_records"] = tracer.records_seen
        profile["trace_overhead_ratio"] = overhead["ratio"]
        profile["trace_per_record_ns"] = overhead["per_record_ns"]
    if busy:
        total_busy = sum(busy.values())
        by_group: Dict[str, int] = {}
        for component, cycles in busy.items():
            group = _component_group(component)
            by_group[group] = by_group.get(group, 0) + cycles
        profile["component_busy_share"] = {
            group: by_group[group] / total_busy for group in sorted(by_group)
        }
    return {
        "description": experiment.description,
        "fidelity": fidelity,
        "machine": machine,
        "self_profile": profile,
    }


def _bench_worker(task: Tuple[str, bool]) -> Dict[str, object]:
    """Worker-process entry: run one experiment, return its section."""
    key, trace = task
    return bench_experiment(key, trace=trace)


def partitioned_profile(
    key: str, partitions: int, events: Optional[float] = None
) -> Optional[Dict[str, object]]:
    """Time one experiment under partitioned execution (``--partitions N``).

    Returns the extra ``self_profile`` keys, or ``None`` for experiments
    without a unit decomposition (nothing to shard).  When ``events`` is
    given (the deterministic ``events_processed`` count from the normal
    bench run of the same experiment), the timed pass runs fully
    *uninstrumented* -- tracers disabled, nothing on the hot path -- and
    the rate is ``events / wall``: the partitioned fast path measured the
    same way the engine would run with recording off.  Without an event
    count the pass falls back to the small-ring telemetry tracers and
    their exact counter totals.  Either way fidelity and machine sections
    still come from the normal run and cannot drift.
    """
    from repro.experiments.registry import get_experiment
    from repro.partition import run_partitioned

    if get_experiment(key).units is None:
        return None
    run = run_partitioned(
        key, partitions, traced=False, instrumented=events is None
    )
    telemetry = run.telemetry
    wall = float(telemetry["wall_seconds"])
    if events is None:
        rate = telemetry["events_per_sec"]
    else:
        rate = float(events) / wall if wall > 0 else 0.0
    return {
        "partitions": partitions,
        "partitioned_events_per_sec": rate,
        "partitioned_wall_seconds": wall,
        "partitioned_barrier_stall_seconds": max(
            stat["barrier_stall_seconds"]
            for stat in telemetry["partition_stats"]
        ),
        # Per-partition detail; a list, so the drift checker (numeric
        # series only) records but never compares it.
        "partition_stats": telemetry["partition_stats"],
    }


def build_snapshot(
    keys: Sequence[str],
    snapshot_index: int,
    trace: bool = True,
    progress=None,
    jobs: int = 1,
    partitions: Optional[int] = None,
) -> Dict[str, object]:
    """Run ``keys`` and assemble the full snapshot document.

    With ``jobs > 1`` experiments run in worker processes.  Each experiment
    is independent (its own engine, tracer and monitors), and sections are
    assembled in the caller's key order -- never completion order -- so the
    snapshot is byte-identical for any job count, modulo the wall-clock
    numbers in ``self_profile``.

    With ``partitions``, every unit-decomposable experiment gets an extra
    partitioned timed pass (run in this process, *after* the normal runs:
    partitioned execution forks its own shard workers, which the daemonic
    ``--jobs`` children may not) whose throughput lands in
    ``self_profile`` next to the single-process numbers.
    """
    experiments: Dict[str, object] = {}
    if jobs > 1 and len(keys) > 1:
        sections = {}
        tasks = [(key, (key, trace)) for key in keys]
        for key, section in parallel_map(
            _bench_worker, tasks, jobs=min(jobs, len(keys))
        ):
            if progress is not None:
                progress(key)
            sections[key] = section
        for key in keys:  # deterministic order regardless of completion
            experiments[key] = sections[key]
    else:
        for key in keys:
            if progress is not None:
                progress(key)
            experiments[key] = bench_experiment(key, trace=trace)
            gc.collect()  # bound memory between experiments, outside timing
    if partitions is not None and partitions > 1:
        from repro.experiments.registry import get_experiment

        for key in keys:
            if get_experiment(key).units is None:
                continue
            if progress is not None:
                progress(f"{key} [partitioned x{partitions}]")
            events = experiments[key]["self_profile"].get("events_processed")
            extra = partitioned_profile(key, partitions, events=events)
            if extra is not None:
                experiments[key]["self_profile"].update(extra)
    document: Dict[str, object] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "snapshot": snapshot_index,
        "traced": trace,
        "code_version": version_fingerprint(),
        "experiments": experiments,
    }
    if partitions is not None:
        document["partitions"] = partitions
    return document


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
    if version != SCHEMA_VERSION:
        raise BenchError(
            f"{path} has schema version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}"
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
    """One compared metric that moved (or appeared/disappeared)."""

    experiment: str
    metric: str
    metric_class: str            # fidelity | machine | self_profile
    severity: str                # fail | warn | info
    baseline: Optional[float]
    current: Optional[float]
    rel_change: Optional[float]  # signed (current-baseline)/|baseline|

    def describe(self) -> str:
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
    """All findings of one baseline-vs-current comparison."""

    baseline_snapshot: int
    current_snapshot: int
    compared: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def failures(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def exit_code(self, strict: bool = False) -> int:
        if self.failures:
            return 1
        if strict and self.warnings:
            return 3
        return 0

    def render(self) -> str:
        lines = [
            f"Regression report: snapshot {self.baseline_snapshot} -> "
            f"{self.current_snapshot}, {self.compared} metric(s) compared: "
            f"{len(self.failures)} failure(s), {len(self.warnings)} warning(s)"
        ]
        for title, group in (
            ("FAIL", self.failures),
            ("WARN", self.warnings),
            ("info", [f for f in self.findings if f.severity == "info"]),
        ):
            for finding in group:
                lines.append(f"  {title}  {finding.describe()}")
        if not self.findings:
            lines.append("  no drift beyond tolerance")
        return "\n".join(lines)


def _relative_change(baseline: float, current: float) -> float:
    if baseline == current:
        return 0.0
    return (current - baseline) / max(abs(baseline), 1e-12)


def _compare_class(
    report: RegressionReport,
    experiment: str,
    metric_class: str,
    severity: str,
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    tolerance: float,
    directions: Optional[Mapping[str, int]] = None,
) -> None:
    for name in sorted(set(baseline) | set(current)):
        if directions is not None and name not in directions:
            continue
        old = baseline.get(name)
        new = current.get(name)
        if old is None or new is None:
            report.findings.append(
                Finding(experiment, name, metric_class, "info", old, new, None)
            )
            continue
        report.compared += 1
        rel = _relative_change(old, new)
        if abs(rel) <= tolerance:
            continue
        direction = 0 if directions is None else directions[name]
        regressed = (
            direction == 0
            or (direction > 0 and rel < 0)
            or (direction < 0 and rel > 0)
        )
        report.findings.append(
            Finding(
                experiment,
                name,
                metric_class,
                severity if regressed else "info",
                old,
                new,
                rel,
            )
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
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    tolerances: Optional[Mapping[str, float]] = None,
) -> RegressionReport:
    """Diff two snapshots metric-by-metric under per-class tolerances.

    Only experiments present in both snapshots are compared, so a
    ``--quick`` run diffs cleanly against a full baseline.  Metrics present
    on one side only are reported as informational findings.
    """
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    report = RegressionReport(
        baseline_snapshot=int(baseline.get("snapshot", -1)),
        current_snapshot=int(current.get("snapshot", -1)),
    )
    base_experiments = baseline.get("experiments", {})
    cur_experiments = current.get("experiments", {})
    for key in sorted(set(base_experiments) & set(cur_experiments)):
        base_section = base_experiments[key]
        cur_section = cur_experiments[key]
        _compare_class(
            report, key, "fidelity", "fail",
            _fidelity_values(base_section), _fidelity_values(cur_section),
            tol["fidelity"],
        )
        _compare_class(
            report, key, "machine", "fail",
            _numeric(base_section.get("machine", {})),
            _numeric(cur_section.get("machine", {})),
            tol["machine"],
        )
        _compare_class(
            report, key, "self_profile", "warn",
            _numeric(base_section.get("self_profile", {})),
            _numeric(cur_section.get("self_profile", {})),
            tol["self_profile"],
            directions=_PROFILE_DIRECTION,
        )
    return report
