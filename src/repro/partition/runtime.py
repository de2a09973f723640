"""The one experiment executor: ``run``, ``trace``, ``bench`` and ``serve``.

:func:`run_partitioned` is the only code that executes a registry
experiment.  ``partitions=None`` runs it whole, as one :data:`WHOLE_UNIT`
in this process; that is what an unflagged ``cedar-repro run``, ``trace``,
``bench`` and a ``partitions: 1`` serve job do.

An integer is ``cedar-repro run --partitions N``.  An experiment that
declares a unit decomposition (``Experiment.units`` / ``run_unit`` /
``combine``) is a bag of *independent machine runs*: every Table 1 cell,
every Table 2 (kernel, CE-count) point, every PPT4 CG timing is its own
simulator instance with its own engine, network and memory.
``run_partitioned`` shards those units round-robin across N worker
processes, runs each unit under a fresh per-unit tracer and sanitizer, and
reassembles the pieces **in declared unit order**:

* results re-enter through ``Experiment.combine`` exactly as the
  single-process ``run()`` builds them (``run()`` itself is implemented as
  ``combine({unit: run_unit(unit)})``), so the rendered artifact is
  byte-identical for any partition count;
* sanitizer summaries are summed per invariant class in unit order;
* per-unit trace buffers are spliced by :class:`~repro.trace.TraceMerger`
  in unit order, so ``--trace-out`` is byte-identical for any N;
* cProfile stats from every shard merge into one profile
  (:func:`merge_profile_stats`), so ``--profile`` covers worker time.

Experiments without a decomposition run as one :data:`WHOLE_UNIT` in
partition 0; extra partitions simply stay idle, preserving output
byte-identity rather than refusing the flag.  A run with only one busy
shard forks nothing: the caller runs that shard itself, through the same
per-unit code a worker process would run.

A whole run is never split into units: merged per-unit traces differ from
one shared tracer's (record order, sampled gauges), so ``--trace-out``
without ``--partitions`` keeps the single-tracer bytes.
"""

from __future__ import annotations

import cProfile
import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.registry import get_experiment
from repro.hardware.sanitize import sanitizing
from repro.trace import TraceMerger, Tracer, tracing

#: Unit name used for experiments without a declared decomposition.
WHOLE_UNIT = "__whole__"


def plan_units(key: str) -> List[str]:
    """The experiment's declared unit names, or ``[WHOLE_UNIT]``."""
    experiment = get_experiment(key)
    if experiment.units is None:
        return [WHOLE_UNIT]
    return list(experiment.units())


def shard_units(units: List[str], partitions: int) -> List[List[str]]:
    """Round-robin assignment of units to partitions (deterministic)."""
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    return [units[p::partitions] for p in range(partitions)]


def _run_units(
    key: str,
    units: List[str],
    sanitized: bool,
    traced: bool,
    instrumented: bool = True,
) -> Dict[str, object]:
    """Run one shard's units in order; collect per-unit artifacts.

    A unit gets a *fresh* tracer only when the shard must ship its trace
    (``traced``) or count partition telemetry (``instrumented``); it gets
    a fresh sanitizer whenever one is armed.  The unit, not the shard, is
    the determinism boundary, so per-unit artifacts reassemble
    identically however units are sharded.

    Otherwise the unit runs on the caller's ambient trace bus: serve's
    progress tracer, bench's counters-only tracer, ``trace``'s tracer, or
    none at all -- the uninstrumented fast path, no counters or timeline
    events on any hot path.  Event counts in the telemetry then read as
    zero.
    """
    experiment = get_experiment(key)
    results: Dict[str, object] = {}
    summaries: Dict[str, Dict[str, object]] = {}
    traces: Dict[str, bytes] = {}
    events = 0.0
    trace_counts = dict.fromkeys(
        ("records", "records_seen", "dropped", "buffer_bytes"), 0
    )
    for unit in units:
        if unit == WHOLE_UNIT:
            run_one = experiment.run
        else:
            run_one = lambda: experiment.run_unit(unit)  # noqa: E731
        tracer: Optional[Tracer] = None
        if traced:
            tracer = Tracer(enabled=True)
        elif instrumented:
            # Telemetry reads only counter totals (the events/s source).
            tracer = Tracer(enabled=True, max_records=0)
        with tracing(tracer) if tracer is not None else nullcontext():
            if sanitized:
                with sanitizing() as sanitizer:
                    result = run_one()
                sanitizer.finalize()
                summaries[unit] = sanitizer.summary()
            else:
                result = run_one()
        results[unit] = result
        if tracer is None:
            continue
        events += sum(
            counters.get("events_dispatched", 0)
            for counters in tracer.counter_totals().values()
        )
        if traced:
            traces[unit] = tracer.snapshot().to_bytes()
            trace_counts["records"] += tracer.num_records
            trace_counts["records_seen"] += tracer.records_seen
            trace_counts["dropped"] += tracer.dropped
            trace_counts["buffer_bytes"] += tracer.buffer_bytes
    return {
        "results": results,
        "sanitizers": summaries,
        "traces": traces,
        "events": events,
        "trace_counts": trace_counts,
    }


def _shard_worker(payload: Tuple) -> Dict[str, object]:
    """Worker-process entry: run one partition's shard of units.

    The cyclic garbage collector pauses around the timed region (the
    ``timeit`` policy): reference counting still reclaims everything
    acyclic at once, so the shard's wall time measures the simulator, not
    collector pauses.  No collect is forced afterwards: a shard child
    exits next, and an in-process caller's collector resumes on its own.
    """
    key, units, sanitized, traced, profiled, instrumented = payload
    profiler = cProfile.Profile() if profiled else None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        output = _run_units(key, units, sanitized, traced, instrumented)
        wall_seconds = time.perf_counter() - began
    finally:
        if profiler is not None:
            profiler.disable()
        if gc_was_enabled:
            gc.enable()
    output["wall_seconds"] = wall_seconds
    if profiler is not None:
        profiler.create_stats()
        output["profile"] = profiler.stats  # plain dict: picklable
    return output


def merge_profile_stats(
    stats_list: List[Dict[Tuple, Tuple]]
) -> Dict[Tuple, Tuple]:
    """Sum cProfile stats dicts from several processes into one.

    Each entry maps ``(file, line, func)`` to ``(cc, nc, tt, ct,
    callers)``; primitive/total call counts and times add, and the callers
    sub-dicts add element-wise -- the same arithmetic
    ``pstats.Stats.add`` performs, minus the file round-trip it requires.
    """
    merged: Dict[Tuple, Tuple] = {}
    for stats in stats_list:
        for func, (cc, nc, tt, ct, callers) in stats.items():
            if func not in merged:
                merged[func] = (cc, nc, tt, ct, dict(callers))
                continue
            mcc, mnc, mtt, mct, mcallers = merged[func]
            for caller, counts in callers.items():
                if caller in mcallers:
                    mcallers[caller] = tuple(
                        a + b for a, b in zip(mcallers[caller], counts)
                    )
                else:
                    mcallers[caller] = counts
            merged[func] = (mcc + cc, mnc + nc, mtt + tt, mct + ct, mcallers)
    return merged


def profile_top_from_stats(
    stats: Dict[Tuple, Tuple], top: int
) -> List[Dict[str, object]]:
    """The ``top`` hottest functions by total time, as JSON-safe records."""
    ordered = sorted(stats.items(), key=lambda item: (-item[1][2], item[0]))
    rows: List[Dict[str, object]] = []
    for func, (cc, nc, tt, ct, _callers) in ordered[:top]:
        filename, line, name = func
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "ncalls": nc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    return rows


@dataclass
class PartitionedRun:
    """Everything one partitioned experiment run produced."""

    key: str
    #: ``None`` for a whole run.
    partitions: Optional[int]
    result: object
    rendered: str
    #: Aggregated sanitizer summary (unit summaries summed in unit order),
    #: ``None`` unless the run was sanitized.
    sanitizer: Optional[Dict[str, object]]
    #: Trace snapshot wire bytes (several unit buffers merged in unit
    #: order), ``None`` unless traced.
    trace_bytes: Optional[bytes]
    trace_meta: Optional[Dict[str, object]]
    #: Merged cProfile stats across all partitions, ``None`` unless
    #: profiled.
    profile_stats: Optional[Dict[Tuple, Tuple]]
    #: ``partitions`` / ``events_dispatched`` / ``events_per_sec`` /
    #: ``partition_stats`` -- the per-partition throughput accounting.
    telemetry: Dict[str, object]


def _aggregate_sanitizer(
    units: List[str], summaries: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    checks: Dict[str, int] = {}
    violations = 0
    for unit in units:
        summary = summaries[unit]
        for name, count in summary["checks"].items():
            checks[name] = checks.get(name, 0) + count
        violations += summary["violations"]
    return {
        "enabled": True,
        "checks": {name: checks[name] for name in sorted(checks)},
        "total_checks": sum(checks.values()),
        "violations": violations,
    }


def run_partitioned(
    key: str,
    partitions: Optional[int] = None,
    sanitized: bool = False,
    traced: bool = False,
    profiled: bool = False,
    instrumented: bool = True,
) -> PartitionedRun:
    """Run one experiment whole (``partitions=None``) or sharded.

    ``partitions=None`` runs the experiment as one :data:`WHOLE_UNIT` in
    this process.  An integer shards its declared units across that many
    worker processes, one per busy shard; with a single busy shard (any
    ``partitions == 1`` run, or an experiment without units) the same
    per-unit code path runs in-process, so the outputs (rendered text,
    combined result, sanitizer summary, merged trace bytes) are
    byte-identical for any partition count; only the wall-clock telemetry
    differs.

    ``instrumented=False`` installs no per-unit tracer, so the run
    attaches to the caller's ambient bus (see :func:`_run_units`); event
    counts in the telemetry read as zero.  Tracing implies
    instrumentation, so ``traced=True`` overrides it.
    """
    instrumented = instrumented or traced
    experiment = get_experiment(key)
    # Import the driver before the clock starts and before shards fork:
    # telemetry times the run, and each shard inherits the module.
    experiment.load()
    units = [WHOLE_UNIT] if partitions is None else plan_units(key)
    shards = shard_units(units, 1 if partitions is None else partitions)
    outputs: Dict[int, Dict[str, object]] = {}
    busy = [p for p, shard in enumerate(shards) if shard] or [0]
    began = time.perf_counter()
    if len(busy) == 1:
        # One busy shard (always so for a run without declared units):
        # forking would leave this process idle while a copy of it works.
        outputs[busy[0]] = _shard_worker(
            (key, shards[busy[0]], sanitized, traced, profiled, instrumented)
        )
    else:
        from repro.parallel import parallel_map

        index_of = {f"{key}[p{p}]": p for p in busy}
        tasks = [
            (task_key, (key, shards[p], sanitized, traced, profiled, instrumented))
            for task_key, p in index_of.items()
        ]
        for task_key, output in parallel_map(
            _shard_worker, tasks, jobs=len(tasks)
        ):
            outputs[index_of[task_key]] = output
    total_wall = time.perf_counter() - began

    unit_results: Dict[str, object] = {}
    unit_summaries: Dict[str, Dict[str, object]] = {}
    unit_traces: Dict[str, bytes] = {}
    # Partition order, NOT outputs.values(): the dict fills in worker
    # *arrival* order, and replaying that interleaving into the merge
    # would make the combined artifacts scheduling-dependent
    # (det.dict-merge-order -- the finding that motivated the rule).
    for p in sorted(outputs):
        output = outputs[p]
        unit_results.update(output["results"])
        unit_summaries.update(output["sanitizers"])
        unit_traces.update(output["traces"])
    if units == [WHOLE_UNIT]:
        result = unit_results[WHOLE_UNIT]
    else:
        result = experiment.combine(unit_results)
    rendered = experiment.render(result)

    summary = _aggregate_sanitizer(units, unit_summaries) if sanitized else None

    trace_bytes: Optional[bytes] = None
    trace_meta: Optional[Dict[str, object]] = None
    if traced:
        if len(units) == 1:
            trace_bytes = unit_traces[units[0]]  # nothing to splice
        else:
            merger = TraceMerger()
            for unit in units:
                merger.add(unit_traces[unit])
            trace_bytes = merger.merge().to_bytes()
        trace_meta = {
            name: sum(outputs[p]["trace_counts"][name] for p in sorted(outputs))
            for name in ("records", "records_seen", "dropped", "buffer_bytes")
        }

    profile_stats: Optional[Dict[Tuple, Tuple]] = None
    if profiled:
        profile_stats = merge_profile_stats(
            [outputs[p]["profile"] for p in sorted(outputs)]
        )

    partition_stats: List[Dict[str, object]] = []
    total_events = 0.0
    for p, shard in enumerate(shards):
        output = outputs.get(p)
        events = float(output["events"]) if output else 0.0
        wall = float(output["wall_seconds"]) if output else 0.0
        total_events += events
        partition_stats.append(
            {
                "partition": p,
                "units": len(shard),
                "events_dispatched": events,
                "wall_seconds": wall,
                "events_per_sec": events / wall if wall > 0 else 0.0,
                # Time this partition spent finished-but-waiting at the
                # end-of-run barrier for the slowest shard.
                "barrier_stall_seconds": max(0.0, total_wall - wall),
            }
        )
    telemetry: Dict[str, object] = {
        "partitions": partitions,
        "units": len(units),
        "events_dispatched": total_events,
        "wall_seconds": total_wall,
        "events_per_sec": total_events / total_wall if total_wall > 0 else 0.0,
        "partition_stats": partition_stats,
    }
    return PartitionedRun(
        key=key,
        partitions=partitions,
        result=result,
        rendered=rendered,
        sanitizer=summary,
        trace_bytes=trace_bytes,
        trace_meta=trace_meta,
        profile_stats=profile_stats,
        telemetry=telemetry,
    )
