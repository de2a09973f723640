"""Outside-in benchmark of the Cedar reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with every
tracer and profiler off; with ``--trace 1`` they are the per-layer ones
from a separate traced run.  Earlier lines carry the host facts and a
report with what the gate does not read (latency percentiles with sample
counts, simulated cycles per host second, ``failed_ratio``).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    HostSpeed, Spans, host_facts, median, one_core, own_peak_rss_mb,
    proc_status_kb, python_env, time_cold_start,
)

WORKLOAD_NAMES = ("prefetch-contention", "demand-rw", "serve-mixed", "sweep-shapes")

#: Fresh interpreters (or servers) started per run to time set-up.
SETUP_REPEATS = 5

#: Warm requests over which the serving tier's RSS growth is measured.
RSS_PROBE_REQUESTS = 1000

#: ``serve-mixed`` reads the server's peak RSS after this many passes.
RSS_PASSES = 10


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------


class Server:
    """``cedar-repro serve --jobs 2`` with a fresh cache directory."""

    ANNOUNCE = re.compile(r"serving on http://[^:]+:(\d+)")

    def __init__(self, workdir: str) -> None:
        cache = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.log_path = cache + ".log"
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--jobs", "2", "--cache-dir", cache],
                stdout=subprocess.DEVNULL, stderr=log, env=python_env(SRC),
            )
        try:
            self.port = self._wait_for_announce()
        except BaseException:
            self.stop()
            raise

    def _wait_for_announce(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                match = self.ANNOUNCE.search(log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def time_server_start(workdir: str, repeats: int) -> float:
    """Median scaled seconds from launching the server to its announcing
    a port, over ``repeats`` servers started and stopped on one core."""
    speed = HostSpeed()
    ready = []
    with one_core():
        for _ in range(repeats):
            server, _, scaled = speed.time(lambda: Server(workdir))
            server.stop()
            ready.append(scaled)
    return median(ready)


def render_reference(experiment: str, spec: Optional[Dict[str, int]]) -> str:
    """In-process ``experiment.render(experiment.run())`` on ``spec``."""
    from contextlib import ExitStack

    from repro.builder import MachineSpec, build_config
    from repro.config import overriding
    from repro.experiments.registry import get_experiment

    entry = get_experiment(experiment)
    with ExitStack() as scope:
        if spec is not None:
            scope.enter_context(overriding(build_config(MachineSpec.from_dict(spec))))
        return entry.render(entry.run())


class RenderCache:
    """:func:`render_reference` computed once per (experiment, spec)."""

    def __init__(self) -> None:
        self.rendered: Dict[str, str] = {}

    def __call__(self, experiment: str, spec) -> str:
        key = experiment + json.dumps(spec, sort_keys=True)
        if key not in self.rendered:
            self.rendered[key] = render_reference(experiment, spec)
        return self.rendered[key]


# ---------------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end_simulator(name: str, seed: int, seconds: float):
    from oracle import Oracle
    from workloads import SIMULATOR_WORKLOADS, measure_passes

    workload = SIMULATOR_WORKLOADS[name]()
    setup_s = time_cold_start(SRC, workload.setup_code, SETUP_REPEATS)
    workload.start(seed, Oracle())
    run = measure_passes(workload.run_pass, seconds)
    wall_s = median(run["scaled"])
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss_mb(),
    }
    report = {
        "sim_cycles_per_s": workload.sim_cycles() / wall_s,
        **pass_report(run),
        **workload.report(),
    }
    return metrics, run["attempted"], run["failed"], report


def pass_report(run: Dict[str, object]) -> Dict[str, object]:
    return {
        "passes": len(run["walls"]),
        "pass_host_s": run["walls"],
        "pass_scaled_s": run["scaled"],
        "probe_mean_s": run["probe_mean_s"],
    }


def end_to_end_serve(seed: int, seconds: float, workdir: str):
    from workloads import ServeMix, ServeSession, latency_report, measure_passes

    setup_s = time_server_start(workdir, SETUP_REPEATS)
    mix = ServeMix(seed)
    peak_kb: List[float] = []

    def run_pass(speed):
        requests = mix.next_pass()
        if requests is None:
            raise RuntimeError("serve mix ran out of fresh configs")
        (attempted, failed), wall, scaled = speed.time(
            lambda: session.run_pass(requests))
        if len(peak_kb) < RSS_PASSES:
            # Read at a fixed pass count: the server retains every job,
            # so a later reading would grow with the host's speed.
            peak_kb.append(proc_status_kb(server.pid, "VmHWM"))
        return attempted, failed, wall, scaled

    server = Server(workdir)
    try:
        session = ServeSession(server, RenderCache())
        try:
            run = measure_passes(run_pass, seconds)
        finally:
            session.close()
    finally:
        server.stop()
    failed = run["failed"] + session.check_cold_bodies()
    metrics = {
        "wall_s": median(run["scaled"]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb[-1] / 1024.0,
    }
    report = {**pass_report(run), **latency_report(session)}
    return metrics, run["attempted"], failed, report


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def probe_public_calls(spans: Spans, workdir: str, builder_probes: bool) -> None:
    """Time single calls into the serving, results, parallel, builder and
    machine layers."""
    from repro.builder import CEDAR_SPEC, build_config
    from repro.experiments.registry import EXPERIMENTS
    from repro.hardware.machine import CedarMachine
    from repro.parallel import run_in_process
    from repro.results import canonical_bytes
    from repro.serve import ResultCache, cache_key, canonical_config, parse_job_request
    from repro.serve.worker import execute_job
    from repro.version import version_fingerprint

    from layers import noop_worker
    from workloads import SERVE_EXPERIMENTS

    if builder_probes:
        for _ in range(5):
            with spans.span("builder.build_config"):
                build_config(CEDAR_SPEC)
            with spans.span("hardware.machine.construct"):
                CedarMachine()
    for _ in range(5):
        with spans.span("parallel.spawn"):
            run_in_process(noop_worker, "noop", None)
    config = canonical_config(None)
    bodies = []
    for experiment in SERVE_EXPERIMENTS:
        with spans.span("serve.execute_job"):
            outcome = execute_job({"experiment": experiment, "config": config},
                                  lambda data: None)
        bodies.append(outcome["result"])
    fingerprint = version_fingerprint()
    request = {"experiment": "table3", "config": {"sanitize": True}}
    cache = ResultCache(tempfile.mkdtemp(prefix="probe-", dir=workdir))
    for index in range(200):
        with spans.span("serve.parse"):
            parse_job_request(request, EXPERIMENTS)
        with spans.span("serve.cache_key"):
            key = cache_key(f"probe{index}", config, fingerprint)
        body = bodies[index % len(bodies)]
        with spans.span("serve.cache_put"):
            cache.put(key, body)
        with spans.span("serve.cache_get"):
            cache.get(key)
        record = json.loads(body)
        with spans.span("results.canonical_bytes"):
            canonical_bytes(record)


def span_metrics(spans: Spans) -> Dict[str, float]:
    """Totals per pass for workload spans, medians per call for probes."""
    return {
        "kernels.run_unit_s": spans.total("kernels.run_unit"),
        "builder.measure_spec_s": spans.total("builder.measure_spec"),
        "experiments.render_s": spans.total("experiments.render"),
        "trace.snapshot_s": spans.total("trace.snapshot"),
        "builder.build_config_s": spans.median("builder.build_config"),
        "hardware.machine.construct_s": spans.median("hardware.machine.construct"),
        "parallel.spawn_ms": spans.median("parallel.spawn") * 1e3,
        "serve.execute_job_ms": spans.median("serve.execute_job") * 1e3,
        "serve.parse_us": spans.median("serve.parse") * 1e6,
        "serve.cache_key_us": spans.median("serve.cache_key") * 1e6,
        "serve.cache_get_us": spans.median("serve.cache_get") * 1e6,
        "serve.cache_put_us": spans.median("serve.cache_put") * 1e6,
        "results.canonical_bytes_us": spans.median("results.canonical_bytes") * 1e6,
    }


def traced_simulator(name: str, seed: int, workdir: str):
    """One untraced pass (spans only), one pass with the bus on (counts,
    records, A/B overhead), one profiled pass with the bus on (self time).
    The A/B compares scaled times, so a change of core speed between the
    two passes does not show up as tracer overhead."""
    from repro.trace import Tracer, tracing

    from layers import count_metrics, layer_metrics, profile, tracer_counts
    from oracle import Oracle
    from workloads import SIMULATOR_WORKLOADS

    oracle = Oracle()
    workload = SIMULATOR_WORKLOADS[name]()
    workload.start(seed, oracle)
    spans = Spans()
    speed = HostSpeed()
    attempted = failed = 0

    wall_off = 0.0
    for op in workload.ops:
        (ok, _), _, scaled = speed.time(lambda: workload.run_op(op, spans))
        wall_off += scaled
        failed += not ok
        attempted += 1

    raw: Counter = Counter()
    wall_on = host_on = estimate = records = 0.0
    for op in workload.ops:
        tracer = Tracer()

        def traced_op():
            with tracing(tracer):
                return workload.run_op(op, Spans())

        (ok, hidden), elapsed, scaled = speed.time(traced_op)
        wall_on += scaled
        host_on += elapsed
        counts = tracer_counts(tracer)
        raw.update(counts)
        raw.update(hidden)
        if not workload.sweep:
            ok = ok and oracle.counts(op, count_metrics(counts))
        failed += not ok
        attempted += 1
        records += tracer.records_seen
        estimate += tracer.overhead_estimate(elapsed)["overhead_seconds"]
        with spans.span("trace.snapshot"):
            tracer.snapshot().to_bytes()

    def profiled() -> None:
        with tracing(Tracer()):
            workload.profiled_pass()

    totals = profile(profiled)
    workload.render_probe(spans)
    probe_public_calls(spans, workdir, builder_probes=not workload.sweep)

    metrics = {**layer_metrics(totals), **count_metrics(raw), **span_metrics(spans)}
    events = metrics["hardware.engine.events_dispatched"]
    metrics.update({
        "hardware.engine.host_ns_per_event": wall_off / events * 1e9 if events else 0.0,
        "trace.overhead_ratio": wall_on / wall_off - 1.0,
        "trace.estimate_ratio": estimate / host_on,
        "trace.records": records,
        # No server runs in a simulator workload.
        "serve.server_latency_ms": 0.0,
        "serve.client_overhead_ms": 0.0,
        "serve.jobs_retained": 0.0,
        "serve.rss_growth_kb_per_1k": 0.0,
    })
    return metrics, attempted, failed


def traced_serve(seed: int, workdir: str):
    """In-process layer probes (the profiled part: the six analytic jobs
    through ``execute_job``), an A/B of the bus on the analytic
    experiments, then one pass of the mix against a server plus
    :data:`RSS_PROBE_REQUESTS` warm requests."""
    from repro.experiments.registry import get_experiment
    from repro.serve.schema import canonical_config
    from repro.serve.worker import execute_job
    from repro.trace import Tracer, tracing

    from layers import count_metrics, layer_metrics, profile
    from workloads import SERVE_EXPERIMENTS, ServeMix, ServeSession

    spans = Spans()
    probe_public_calls(spans, workdir, builder_probes=True)

    config = canonical_config(None)

    def profiled() -> None:
        for experiment in SERVE_EXPERIMENTS:
            execute_job({"experiment": experiment, "config": config}, lambda data: None)

    totals = profile(profiled)

    wall_off = wall_on = estimate = records = 0.0
    for _ in range(10):
        for experiment in SERVE_EXPERIMENTS:
            entry = get_experiment(experiment)
            began = time.perf_counter()
            result = entry.run()
            wall_off += time.perf_counter() - began
            with spans.span("experiments.render"):
                entry.render(result)
            tracer = Tracer()
            began = time.perf_counter()
            with tracing(tracer):
                entry.run()
            elapsed = time.perf_counter() - began
            wall_on += elapsed
            records += tracer.records_seen
            estimate += tracer.overhead_estimate(elapsed)["overhead_seconds"]
            with spans.span("trace.snapshot"):
                tracer.snapshot().to_bytes()

    server = Server(workdir)
    try:
        session = ServeSession(server, RenderCache())
        try:
            mix = ServeMix(seed)
            attempted, failed = session.run_pass(mix.next_pass())
            before_kb = proc_status_kb(server.pid, "VmRSS")
            computed = list(mix.computed)
            for index in range(0, RSS_PROBE_REQUESTS, len(computed)):
                batch = computed[: RSS_PROBE_REQUESTS - index]
                failed += sum(not ok for ok in session.pool.map(
                    lambda item: session.warm(*item), batch))
                attempted += len(batch)
            growth_kb = proc_status_kb(server.pid, "VmRSS") - before_kb
            retained = len(session.client.jobs())
        finally:
            session.close()
    finally:
        server.stop()
    failed += session.check_cold_bodies()

    # No cycle-level machine runs here: the hardware counts are zero.
    metrics = {**layer_metrics(totals), **count_metrics({}), **span_metrics(spans)}
    metrics["experiments.render_s"] /= 10
    metrics["trace.snapshot_s"] /= 10
    metrics.update({
        "hardware.engine.host_ns_per_event": 0.0,
        "trace.overhead_ratio": wall_on / wall_off - 1.0,
        "trace.estimate_ratio": estimate / wall_on,
        "trace.records": records / 10,
        "serve.server_latency_ms": median(session.server_ms),
        "serve.client_overhead_ms": median(session.client_overhead_ms),
        "serve.jobs_retained": float(retained),
        "serve.rss_growth_kb_per_1k": growth_kb * 1000.0 / RSS_PROBE_REQUESTS,
    })
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_manifest() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.version import version_fingerprint

    manifest = load_manifest()
    print("host " + json.dumps(host_facts(version_fingerprint()), sort_keys=True))

    serve = args.workload == "serve-mixed"
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            section = "per_layer"
            if serve:
                values, attempted, failed = traced_serve(args.seed, workdir)
            else:
                values, attempted, failed = traced_simulator(
                    args.workload, args.seed, workdir)
        else:
            section = "end_to_end"
            if serve:
                values, attempted, failed, report = end_to_end_serve(
                    args.seed, args.seconds, workdir)
            else:
                values, attempted, failed, report = end_to_end_simulator(
                    args.workload, args.seed, args.seconds)
            report["failed_ratio"] = failed / attempted
            print("report " + json.dumps(report, sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in manifest[section]
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
