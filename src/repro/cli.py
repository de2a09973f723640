"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    cedar-repro list                 # what can be regenerated
    cedar-repro run table1           # one artifact
    cedar-repro run all              # everything (slow: cycle simulations)
    cedar-repro run all --json --out results.json
                                     # one aggregate JSON document
    cedar-repro run table2 --sanitize
                                     # same artifact, with every hardware
                                     # invariant machine-checked en route
    cedar-repro run table1 table2 --jobs 2 --trace-out trace.json
                                     # several experiments at once, each on
                                     # its own columnar tracer; the buffers
                                     # merge into ONE Chrome trace that is
                                     # byte-identical for any --jobs N
    cedar-repro run table2 --partitions 4
                                     # ONE experiment split across 4 worker
                                     # processes (partitioned parallel
                                     # simulation); stdout, --trace-out and
                                     # sanitizer output are byte-identical
                                     # for any partition count
    cedar-repro sweep --axis memory_modules=16,32 --axis port_queue_words=2,4
                                     # design-space sweep: run the spec grid
                                     # through the probe workload, emit a
                                     # Pareto-annotated artifact that is
                                     # byte-identical for any --jobs N
    cedar-repro trace table2 --out trace.json --report
                                     # same artifact, plus machine-wide
                                     # instrumentation (Chrome trace JSON
                                     # and a utilization report)
    cedar-repro bench                # full suite -> BENCH_<n>.json snapshot
                                     # + regression report vs the previous one
    cedar-repro bench --quick        # sub-minute subset (CI gate)
    cedar-repro lint src            # static determinism/discipline
                                     # analysis; exit 1 on any finding
                                     # not in LINT_BASELINE.json
    cedar-repro lint --explain det.set-iter
                                     # the determinism argument one rule
                                     # protects, and its proof fixtures
    cedar-repro serve --jobs 4 --cache-dir .cedar-cache
                                     # simulation-as-a-service: HTTP/JSON job
                                     # server with a deterministic result
                                     # cache and request coalescing
    cedar-repro submit table2 --watch
                                     # run table2 on the server (progress
                                     # events on stderr, result on stdout)
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import BenchError, LintError, WorkerCrashError
from repro.experiments.registry import EXPERIMENTS, QUICK_EXPERIMENTS
from repro.metrics.headline import DEFAULT_TOLERANCES

# Each subcommand imports what it runs inside its handler, so `--help`,
# `list` or one `run` loads no other command's modules (DESIGN.md,
# "Cold start and the import graph").


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedar-repro",
        description=(
            "Reproduction of 'The Cedar System and an Initial Performance "
            "Study' (ISCA 1993)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list regenerable tables/figures")
    run = sub.add_parser("run", help="run one or more experiments (or 'all')")
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment key(s) from 'list', or 'all'",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON results (for benchmarking scripts)",
    )
    run.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write results to FILE instead of stdout (implies --json)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent experiments in N worker processes "
        "(output order stays deterministic)",
    )
    run.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help="partitioned parallel simulation: shard each experiment's "
        "independent machine-run units across N worker processes and "
        "recombine deterministically (stdout, sanitizer summaries and "
        "--trace-out are byte-identical for any N; per-partition "
        "events/s and barrier-stall telemetry goes to stderr and, with "
        "--json, into each record's 'partition' block); without it each "
        "experiment runs whole in one process; mutually exclusive with "
        "--jobs",
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="record every run on a columnar tracer and write one merged "
        "Chrome trace-event JSON (per-worker buffers are merged "
        "deterministically, so --jobs N output is byte-identical to "
        "--jobs 1); with --json, each record also gains a 'trace' "
        "telemetry section",
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the hardware invariant sanitizer: every run is checked "
        "against the invariants in DESIGN.md and a violation aborts with "
        "a structured error (CEDAR_SANITIZE=1 implies this)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="wrap each run in cProfile and print the hottest simulator "
        "functions; with --jobs or --partitions the per-worker stats "
        "are aggregated in the parent",
    )
    run.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="how many functions --profile reports (default 15)",
    )
    sweep = sub.add_parser(
        "sweep",
        help="design-space sweep: run a grid of machine specs through the "
        "deterministic probe workload and extract the Pareto front "
        "(MFLOPS / speedup / network conflicts)",
    )
    sweep.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="FIELD=V1,V2,...",
        help="sweep one MachineSpec field over comma-separated values "
        "(repeatable; the grid is the cartesian product, first axis "
        "slowest); e.g. --axis memory_modules=16,32",
    )
    sweep.add_argument(
        "--points",
        metavar="FILE",
        default=None,
        help="JSON file holding a list of spec objects to run instead of "
        "(or in addition to) the --axis grid",
    )
    sweep.add_argument(
        "--blocks",
        type=int,
        default=None,
        metavar="N",
        help="prefetched blocks each CE streams per measurement "
        "(default: the workload's steady-state setting)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run sweep points in N worker processes (the artifact is "
        "byte-identical for any N)",
    )
    sweep.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the sweep artifact JSON to FILE (default: stdout)",
    )
    sweep.add_argument(
        "--report",
        action="store_true",
        help="print the human-readable sweep table (replaces the JSON on "
        "stdout unless --out is given)",
    )
    trace = sub.add_parser(
        "trace", help="run one experiment with machine-wide instrumentation"
    )
    trace.add_argument("experiment", help="experiment key from 'list'")
    trace.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    trace.add_argument(
        "--report",
        action="store_true",
        help="print the per-component utilization report",
    )
    bench = sub.add_parser(
        "bench",
        help="run the experiment suite into a BENCH_<n>.json snapshot and "
        "compare against the previous snapshot",
    )
    bench.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment keys to bench (default: the full suite)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="bench only the sub-minute experiments (the CI gate)",
    )
    bench.add_argument(
        "--dir",
        default=".",
        metavar="DIR",
        help="directory holding BENCH_<n>.json snapshots (default: .)",
    )
    bench.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="snapshot output path (default: next BENCH_<n>.json in --dir)",
    )
    bench.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline snapshot to diff against (default: latest BENCH_* "
        "in --dir; 'none' skips the comparison)",
    )
    bench.add_argument(
        "--no-trace",
        action="store_true",
        help="skip simulator self-profiling timelines (fidelity metrics "
        "are still recorded)",
    )
    bench.add_argument(
        "--fidelity-tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="relative tolerance before fidelity drift hard-fails "
        f"(default {DEFAULT_TOLERANCES['fidelity']:g})",
    )
    bench.add_argument(
        "--machine-tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="relative tolerance for simulated-machine metrics "
        f"(default {DEFAULT_TOLERANCES['machine']:g})",
    )
    bench.add_argument(
        "--profile-tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="relative tolerance before throughput drift warns "
        f"(default {DEFAULT_TOLERANCES['self_profile']:g})",
    )
    bench.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings (throughput drift) too",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="bench experiments in N worker processes; the snapshot is "
        "byte-identical for any N (modulo self_profile wall-clock)",
    )
    bench.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help="additionally time each unit-decomposable experiment under "
        "partitioned execution with N partitions and record the "
        "partitioned events/s in self_profile (fidelity and machine "
        "sections still come from the normal run, so they cannot "
        "drift)",
    )
    lint = sub.add_parser(
        "lint",
        help="static determinism & simulation-discipline analysis "
        "(AST rules, noqa suppressions, committed baseline; see "
        "DESIGN.md §11)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable findings (schema version 1)",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print a rule's determinism argument and exit ('all' for "
        "the whole catalogue)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="grandfather list of sanctioned findings (default: "
        "LINT_BASELINE.json when present; 'none' disables)",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write the current non-baselined findings as a new baseline "
        "(entries get a TODO comment to replace with a justification)",
    )
    lint.add_argument(
        "--self-check",
        action="store_true",
        help="prove every registered rule against its fire/clean fixture "
        "pair instead of linting (the CI guard against silently-broken "
        "rules)",
    )
    lint.add_argument(
        "--fixtures",
        metavar="DIR",
        default="tests/lint/fixtures",
        help="fixture directory for --self-check "
        "(default: tests/lint/fixtures)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP/JSON job server "
        "(deterministic result cache + request coalescing)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8737,
        help="bind port (default 8737; 0 picks a free port)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="run up to N simulations concurrently, one worker process "
        "each (default 2)",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="spill the content-addressed result cache to DIR so a "
        "restarted server keeps its warm set (default: memory only)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="shed submissions with 503 once N jobs are queued (default 64)",
    )
    submit = sub.add_parser(
        "submit",
        help="submit an experiment to a running `cedar-repro serve` and "
        "print the result document",
    )
    submit.add_argument(
        "experiment", help="experiment key from 'list', or 'all' (a sweep)"
    )
    submit.add_argument("--host", default="127.0.0.1", help="server address")
    submit.add_argument(
        "--port", type=int, default=8737, help="server port (default 8737)"
    )
    submit.add_argument(
        "--config",
        metavar="JSON",
        default=None,
        help="config overrides as a JSON object, e.g. "
        "'{\"sanitize\": true}'",
    )
    submit.add_argument(
        "--watch",
        action="store_true",
        help="stream the job's progress events to stderr while waiting",
    )
    submit.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the result document(s) to FILE instead of stdout",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="give up waiting for the job after this long (default 600)",
    )
    return parser


def _unknown_experiment(key: str) -> int:
    """Error message with near-miss suggestions; returns the exit status."""
    message = f"unknown experiment {key!r}"
    matches = difflib.get_close_matches(key, sorted(EXPERIMENTS), n=3, cutoff=0.4)
    if matches:
        message += "; did you mean: " + ", ".join(matches) + "?"
    else:
        message += "; try 'cedar-repro list'"
    print(message, file=sys.stderr)
    return 2


def _render_profile(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'tottime':>10s} {'cumtime':>10s} {'ncalls':>12s}  function"]
    for row in rows:
        lines.append(
            f"{row['tottime']:10.3f} {row['cumtime']:10.3f} "
            f"{row['ncalls']:12d}  {row['function']}"
        )
    return "\n".join(lines)


def _sanitizer_line(summary: Dict[str, object]) -> str:
    """One-line human rendering of a sanitizer summary."""
    return (
        f"sanitizer: {summary['total_checks']:,} checks across "
        f"{len(summary['checks'])} invariant classes, "
        f"{summary['violations']} violation(s)"
    )


def _run_record(
    task: Tuple[str, Optional[int], bool, bool, bool, int]
) -> Tuple[Dict[str, object], Optional[bytes]]:
    """Run one experiment through the executor; build its JSON-safe record.

    Also the ``--jobs`` worker entry.  The trace travels as wire bytes even
    in-process, so ``--jobs 1`` and ``--jobs N`` feed the merger
    byte-identical inputs; the ``partition`` block appears only for
    ``--partitions`` runs.
    """
    from repro import results as results_mod
    from repro.partition import profile_top_from_stats, run_partitioned

    key, partitions, sanitized, traced, profiled, top = task
    run = run_partitioned(
        key,
        partitions,
        sanitized=sanitized,
        traced=traced,
        profiled=profiled,
        instrumented=partitions is not None,
    )
    record: Dict[str, object] = {
        "experiment": key,
        "description": EXPERIMENTS[key].description,
        "result": results_mod.jsonable(run.result),
        "rendered": run.rendered,
    }
    if partitions is not None:
        record["partition"] = run.telemetry
    if run.sanitizer is not None:
        record["sanitizer"] = run.sanitizer
    if run.trace_meta is not None:
        record["trace"] = run.trace_meta
    if run.profile_stats is not None:
        record["profile"] = profile_top_from_stats(run.profile_stats, top)
    return record, run.trace_bytes


def _write_merged_trace(
    keys: List[str], traces: Dict[str, Optional[bytes]], path: str
) -> None:
    """Merge per-experiment buffers in key order; write one Chrome trace."""
    from repro.trace import TraceMerger, write_chrome_trace

    merger = TraceMerger()
    for key in keys:
        buffer = traces.get(key)
        if buffer is not None:
            merger.add(buffer)
    merged = merger.merge()
    write_chrome_trace(merged, path)
    print(
        f"wrote merged trace ({merged.num_records} records from "
        f"{len(merger)} experiment(s)) to {path}",
        file=sys.stderr,
    )


def _partition_telemetry_lines(key: str, telemetry: Dict[str, object]) -> List[str]:
    """Human rendering of a partitioned run's throughput accounting."""
    lines = [
        f"{key}: {telemetry['events_dispatched']:,.0f} events in "
        f"{telemetry['wall_seconds']:.2f}s across "
        f"{telemetry['partitions']} partition(s) "
        f"({telemetry['events_per_sec']:,.0f} events/s)"
    ]
    for stat in telemetry["partition_stats"]:
        lines.append(
            f"  partition {stat['partition']}: {stat['units']} unit(s), "
            f"{stat['events_dispatched']:,.0f} events, "
            f"{stat['events_per_sec']:,.0f} events/s, "
            f"barrier stall {stat['barrier_stall_seconds']:.2f}s"
        )
    return lines


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.hardware import sanitize
    from repro.parallel import parallel_map
    import repro.partition  # noqa: F401  (once here, not in each --jobs worker)
    from repro.version import version_fingerprint

    if "all" in args.experiments:
        keys = sorted(EXPERIMENTS)
    else:
        keys = list(dict.fromkeys(args.experiments))  # dedupe, keep order
    for key in keys:
        if key not in EXPERIMENTS:
            return _unknown_experiment(key)
    if args.partitions is not None:
        if args.partitions < 1:
            print("--partitions must be >= 1", file=sys.stderr)
            return 2
        if args.jobs > 1:
            print(
                "--partitions and --jobs are mutually exclusive "
                "(partitioned runs already use worker processes)",
                file=sys.stderr,
            )
            return 2
    for path in (args.out, args.trace_out):
        if not path:
            continue
        try:  # fail on an unwritable path before the minutes-long runs
            open(path, "w", encoding="utf-8").close()
        except OSError as error:
            print(f"cannot write {path}: {error}", file=sys.stderr)
            return 2

    # --sanitize arms per-run invariant checking; CEDAR_SANITIZE=1 in the
    # environment implies it (and additionally arms components built by
    # anything else in the process, e.g. the bench harness).
    sanitized = args.sanitize or sanitize.enabled()
    traced = args.trace_out is not None
    json_mode = args.json or bool(args.out)
    tasks = [
        (key, (key, args.partitions, sanitized, traced, args.profile, args.top))
        for key in keys
    ]
    if args.jobs > 1 and len(keys) > 1:
        # Collect everything, then walk key order: output is
        # byte-identical to the sequential run.
        finished = {}
        for key, outcome in parallel_map(
            _run_record, tasks, jobs=min(args.jobs, len(keys))
        ):
            if args.out:
                print(f"finished {key}", file=sys.stderr)
            finished[key] = outcome
        outcomes = (finished[key] for key in keys)
    else:
        def run_in_order():
            for key, task in tasks:
                if args.out:
                    print(f"running {key} ...", file=sys.stderr)
                yield _run_record(task)

        outcomes = run_in_order()

    records: List[Dict[str, object]] = []
    traces: Dict[str, Optional[bytes]] = {}
    for key, (record, trace_bytes) in zip(keys, outcomes):
        records.append(record)
        traces[key] = trace_bytes
        if "partition" in record:
            for line in _partition_telemetry_lines(key, record["partition"]):
                print(line, file=sys.stderr)
        if json_mode:
            continue
        print(record["rendered"])
        if "sanitizer" in record:
            print(_sanitizer_line(record["sanitizer"]))
        print()
        if args.profile:
            print(f"-- hottest functions ({key}) --")
            print(_render_profile(record["profile"]))
            print()
    if traced:
        _write_merged_trace(keys, traces, args.trace_out)
    if not json_mode:
        return 0

    for record in records:
        record["code_version"] = version_fingerprint()
    document = json.dumps(records, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(document + "\n")
        print(f"wrote {len(records)} result(s) to {args.out}", file=sys.stderr)
    else:
        print(document)
    return 0


def _parse_axis(text: str) -> Tuple[str, List[object]]:
    """``FIELD=V1,V2,...`` -> (field, values); values parse as JSON scalars
    (so ``null`` means None and bare words stay strings for the spec
    validator to reject with a structured error)."""
    field, separator, values_text = text.partition("=")
    if not separator or not field or not values_text:
        raise ValueError(
            f"--axis wants FIELD=V1,V2,... (got {text!r})"
        )
    values: List[object] = []
    for item in values_text.split(","):
        try:
            values.append(json.loads(item))
        except json.JSONDecodeError:
            values.append(item)
    return field, values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.builder import expand_grid, render_report, run_sweep
    from repro.builder.sweep import canonical_json
    from repro.builder.workload import DEFAULT_BLOCKS

    axes: Dict[str, List[object]] = {}
    for text in args.axis or []:
        try:
            field, values = _parse_axis(text)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        axes[field] = values
    candidates: List[Dict[str, object]] = expand_grid(axes)
    if args.points:
        try:
            with open(args.points, "r", encoding="utf-8") as stream:
                listed = json.load(stream)
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read {args.points}: {error}", file=sys.stderr)
            return 2
        if not isinstance(listed, list):
            print(
                f"{args.points} must hold a JSON list of spec objects",
                file=sys.stderr,
            )
            return 2
        candidates.extend(listed)
    if not candidates:
        print(
            "nothing to sweep: give at least one --axis FIELD=V1,V2,... "
            "or a --points file",
            file=sys.stderr,
        )
        return 2
    blocks = args.blocks if args.blocks is not None else DEFAULT_BLOCKS
    started = time.time()
    artifact = run_sweep(candidates, jobs=args.jobs, blocks=blocks)
    elapsed = time.time() - started
    # Wall-clock telemetry never enters the canonical artifact.
    print(
        f"swept {len(candidates)} point(s) in {elapsed:.1f}s "
        f"(--jobs {args.jobs})",
        file=sys.stderr,
    )
    document = canonical_json(artifact)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(document)
        print(f"wrote sweep artifact to {args.out}", file=sys.stderr)
    if args.report:
        print(render_report(artifact))
    elif not args.out:
        sys.stdout.write(document)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.partition import run_partitioned
    from repro.trace import Tracer, tracing, utilization_report, write_chrome_trace

    if args.experiment not in EXPERIMENTS:
        return _unknown_experiment(args.experiment)
    if args.out:
        # Fail on an unwritable path now, not after a minutes-long run.
        try:
            open(args.out, "w", encoding="utf-8").close()
        except OSError as error:
            print(f"cannot write {args.out}: {error}", file=sys.stderr)
            return 2
    tracer = Tracer(enabled=True)
    with tracing(tracer):
        run = run_partitioned(args.experiment, None, instrumented=False)
    print(run.rendered)
    print()
    if args.out:
        write_chrome_trace(tracer, args.out)
        print(
            f"wrote {tracer.num_records} trace records"
            f" ({tracer.dropped} dropped) to {args.out}",
            file=sys.stderr,
        )
    if args.report or not args.out:
        print(utilization_report(tracer))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.metrics import bench as bench_mod

    if args.experiments and args.quick:
        print("give either experiment keys or --quick, not both", file=sys.stderr)
        return 2
    if args.quick:
        keys = list(QUICK_EXPERIMENTS)
    elif args.experiments:
        keys = list(args.experiments)
    else:
        keys = sorted(EXPERIMENTS)
    for key in keys:
        if key not in EXPERIMENTS:
            return _unknown_experiment(key)

    tolerances = {}
    if args.fidelity_tolerance is not None:
        tolerances["fidelity"] = args.fidelity_tolerance
    if args.machine_tolerance is not None:
        tolerances["machine"] = args.machine_tolerance
    if args.profile_tolerance is not None:
        tolerances["self_profile"] = args.profile_tolerance

    try:
        baseline = None
        if args.baseline != "none":
            baseline_path = args.baseline or bench_mod.latest_snapshot_path(
                args.dir
            )
            if baseline_path is not None:
                baseline = bench_mod.load_snapshot(baseline_path)
                print(f"baseline: {baseline_path}", file=sys.stderr)
            else:
                print(
                    f"no baseline snapshot in {args.dir}; recording only",
                    file=sys.stderr,
                )
        index = bench_mod.next_snapshot_index(args.dir)
        out_path = args.out or f"{args.dir.rstrip('/')}/BENCH_{index}.json"

        def progress(key: str) -> None:
            print(f"benching {key} ...", file=sys.stderr)

        snapshot = bench_mod.build_snapshot(
            keys,
            index,
            trace=not args.no_trace,
            progress=progress,
            jobs=max(1, args.jobs),
            partitions=args.partitions,
        )
        bench_mod.save_snapshot(snapshot, out_path)
    except (BenchError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"wrote snapshot {index} ({len(keys)} experiment(s)) to {out_path}")
    for key in keys:  # the simulator-throughput headline, per experiment
        profile = snapshot["experiments"][key].get("self_profile", {})
        rate = profile.get("events_per_sec")
        if rate:
            print(
                f"  {key}: {rate:,.0f} events/s "
                f"({profile['wall_seconds']:.1f}s wall)"
            )
    if baseline is None:
        return 0
    report = bench_mod.compare_snapshots(baseline, snapshot, tolerances)
    print(report.render())
    return report.exit_code(strict=args.strict)


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro import lint

    if args.explain is not None:
        rules = (
            lint.all_rules()
            if args.explain == "all"
            else [lint.get_rule(args.explain)]
        )
        blocks = []
        for rule in rules:
            lines = [
                f"{rule.id} -- {rule.title}",
                f"  scope:  repro/{{{', '.join(rule.scope)}}}",
            ]
            if rule.exempt:
                lines.append(f"  exempt: {', '.join(rule.exempt)}")
            lines.append(
                "  fixtures: tests/lint/fixtures/"
                f"{rule.id}/{{fire,clean}}.py"
            )
            lines.append("")
            lines.extend(f"  {line}" for line in rule.rationale.splitlines())
            blocks.append("\n".join(lines))
        print("\n\n".join(blocks))
        return 0

    if args.self_check:
        failures = lint.self_check(args.fixtures)
        for failure in failures:
            print(failure, file=sys.stderr)
        checked = len(lint.all_rules())
        if failures:
            print(
                f"self-check: {len(failures)} failure(s) across "
                f"{checked} rules",
                file=sys.stderr,
            )
            return 1
        print(f"self-check: all {checked} rules fire and stay clean")
        return 0

    report = lint.analyze_paths(args.paths)

    baseline = lint.Baseline()
    baseline_path = args.baseline
    if baseline_path != "none":
        if baseline_path is None and os.path.exists(lint.DEFAULT_BASELINE):
            baseline_path = lint.DEFAULT_BASELINE
        if baseline_path is not None:
            baseline = lint.Baseline.load(baseline_path)
    new, grandfathered, stale = baseline.partition(report.findings)

    if args.write_baseline:
        merged = lint.Baseline(
            list(baseline.entries)
            + list(
                lint.Baseline.from_findings(
                    new, "TODO: justify why this finding is safe, or fix it"
                ).entries
            )
        )
        merged.save(args.write_baseline)
        print(
            f"wrote {len(merged.entries)} baseline entr(y/ies) to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )

    if args.json:
        document = {
            "version": 1,
            "files_checked": report.files_checked,
            "rules": [rule.id for rule in lint.all_rules()],
            "findings": [f.to_json(baselined=False) for f in new]
            + [f.to_json(baselined=True) for f in grandfathered],
            "summary": {
                "total": len(report.findings),
                "new": len(new),
                "baselined": len(grandfathered),
                "suppressed": len(report.suppressed),
                "stale_baseline": [entry.to_json() for entry in stale],
            },
        }
        print(json.dumps(document, indent=2))
        return 1 if new else 0

    for finding in new:
        print(finding.render())
    summary = (
        f"lint: {report.files_checked} file(s), {len(new)} finding(s) "
        f"({len(grandfathered)} baselined, {len(report.suppressed)} "
        "suppressed)"
    )
    print(summary, file=sys.stderr)
    for entry in stale:
        print(
            f"stale baseline entry (nothing matches): {entry.rule} in "
            f"{entry.file} -- remove it",
            file=sys.stderr,
        )
    return 1 if new else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import serve_forever

    def announce(server) -> None:
        print(
            f"cedar-repro serving on http://{server.host}:{server.port} "
            f"({args.jobs} worker(s), cache "
            f"{args.cache_dir or 'in-memory'})",
            file=sys.stderr,
        )

    try:
        asyncio.run(
            serve_forever(
                host=args.host,
                port=args.port,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                queue_limit=args.queue_limit,
                ready=announce,
            )
        )
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except OSError as error:
        print(f"cannot serve on {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.serve import ServeClient

    config = None
    if args.config is not None:
        try:
            config = json.loads(args.config)
        except ValueError as error:
            print(f"--config is not valid JSON: {error}", file=sys.stderr)
            return 2
    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        response = client.submit(args.experiment, config=config)
        documents: List[bytes] = []
        for submitted in response["jobs"]:
            job_id = submitted["id"]
            if args.watch:
                for event, data in client.events(job_id):
                    print(f"[{job_id}] {event}: {json.dumps(data, sort_keys=True)}",
                          file=sys.stderr)
            final = client.wait(job_id, timeout=args.timeout)
            if final["state"] == "failed":
                error = final.get("error", {})
                print(
                    f"job {job_id} ({final['experiment']}) failed: "
                    f"{error.get('message', 'unknown error')}",
                    file=sys.stderr,
                )
                return 1
            body, cache_status = client.result(job_id)
            print(
                f"job {job_id} ({final['experiment']}): {final['state']} "
                f"[{cache_status}] in {final.get('latency_ms', 0):.0f} ms",
                file=sys.stderr,
            )
            documents.append(body)
    except ServeError as error:
        print(str(error), file=sys.stderr)
        return 1
    except ConnectionError as error:
        print(
            f"cannot reach cedar-repro serve at {args.host}:{args.port}: "
            f"{error}",
            file=sys.stderr,
        )
        return 2
    output = b"".join(documents)
    if args.out:
        with open(args.out, "wb") as stream:
            stream.write(output)
        print(f"wrote {len(documents)} result(s) to {args.out}",
              file=sys.stderr)
    else:
        sys.stdout.write(output.decode("utf-8"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for key in sorted(EXPERIMENTS):
            print(f"{key:18s} {EXPERIMENTS[key].description}")
        return 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
    except LintError as error:
        print(str(error), file=sys.stderr)
        return 2
    except WorkerCrashError as error:
        print(str(error), file=sys.stderr)
        if error.worker_traceback:
            print(error.worker_traceback, file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
