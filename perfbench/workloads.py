"""The four workloads.  Each is driven only through public entry points.

A workload is a fixed list of *operations* (a Table 1 or Table 2 cell, a
sweep point, a served request); one *pass* runs every operation once, in
an order drawn from the seed.  ``wall_s`` is the median host time of a
pass, so it means the same thing whatever the seed.

``prefetch-contention``
    Table 2 cells ``RK:16``, ``CG:16``, ``VL:32`` and ``TM:32``:
    prefetched vector streams contending in the Omega network and the
    memory modules.  Chosen because crossbar arbitration, port queueing,
    the engine loop and the prefetch unit carry nearly all host time.
    Starves the tracer, the builder and the serving tier.
``demand-rw``
    Table 1 ``GM_NO_PREFETCH:3`` and ``GM_NO_PREFETCH:4``: the rank-64
    update with demand global loads *and stores*, so the same network and
    memory layers carry writes beside reads.  Chosen so that a
    prefetch-path gain that taxes the demand path shows.  Starves the
    prefetch unit.
``serve-mixed``
    ``cedar-repro serve --jobs 2`` in a subprocess with a fresh cache
    directory, under a closed loop of at most two connections: per pass,
    six cold misses (one per analytic experiment, each with a
    ``sanitize`` x ``partitions`` x ``spec`` config not seen before), six
    concurrent identical pairs (which coalesce) and 120 warm repeats.
    Chosen to measure what a serving user waits for: worker spawn on a
    miss, and the request path on a hit.  Starves every cycle-level
    simulator layer, so an engine change must not move it.
``sweep-shapes``
    ``builder.sweep.run_sweep`` over ``clusters`` {2,4,8} x
    ``switch_radix`` {4,8} with ``jobs=1``: many short *traced*
    simulations on varying shapes.  Chosen because it is the one workload
    where builder elaboration, machine construction and the columnar
    tracer do real work under cycle-level load.  Starves the serving tier.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import HostSpeed, Spans, median, reported_percentile
from oracle import Oracle, serve_body_ok, sweep_key

TABLE2_UNITS = ("RK:16", "CG:16", "VL:32", "TM:32")
TABLE1_UNITS = ("GM_NO_PREFETCH:3", "GM_NO_PREFETCH:4")
SWEEP_AXES = {"clusters": (2, 4, 8), "switch_radix": (4, 8)}
SERVE_EXPERIMENTS = (
    "table3", "table4", "table5", "table6", "figure3", "restructuring",
)
WARM_PER_PASS = 120
CLIENTS = 2


def measure_passes(
    run_pass: Callable[[HostSpeed], Tuple[int, int, float, float]],
    seconds: float,
) -> Dict[str, object]:
    """Run whole passes for about ``seconds``: another pass starts while at
    least half of one more like the last fits, so a run overshoots by at
    most half a pass.  ``run_pass(speed)`` returns (operations attempted,
    failed, host seconds, scaled seconds)."""
    speed = HostSpeed()
    walls: List[float] = []
    scaled: List[float] = []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        tried, bad, wall, wall_scaled = run_pass(speed)
        walls.append(wall)
        scaled.append(wall_scaled)
        attempted += tried
        failed += bad
        pass_seconds = time.perf_counter() - start
        if time.perf_counter() - began + pass_seconds / 2 > seconds:
            return {
                "walls": walls, "scaled": scaled, "attempted": attempted,
                "failed": failed, "probe_mean_s": speed.probe_means,
            }


# ---------------------------------------------------------------------------
# Cycle-level simulator workloads
# ---------------------------------------------------------------------------


class CellWorkload:
    """Independent Table 1 or Table 2 cells through ``run_unit``."""

    sweep = False

    def __init__(self, experiment: str, units: Tuple[str, ...]):
        self.experiment = experiment
        self.units = units
        self.setup_code = (
            f"import repro.experiments.{experiment}; "
            "from repro.hardware.machine import CedarMachine; CedarMachine()"
        )

    def start(self, seed: int, oracle: Oracle) -> None:
        import importlib

        self.module = importlib.import_module(f"repro.experiments.{self.experiment}")
        self.oracle = oracle
        self.ops = list(self.units)
        random.Random(seed).shuffle(self.ops)
        self.op_scaled: Dict[str, List[float]] = {unit: [] for unit in self.ops}

    def check(self, unit: str, value) -> bool:
        if self.experiment == "table2":
            return self.oracle.table2_cell(unit, value)
        return self.oracle.table1_cell(unit, value)

    def run_op(self, unit: str, spans: Spans) -> Tuple[bool, Dict[str, int]]:
        """One cell with a span around ``run_unit``: (correct, counts the
        ambient tracer cannot see)."""
        with spans.span("kernels.run_unit"):
            value = self.module.run_unit(unit)
        return self.check(unit, value), {}

    def run_pass(self, speed: HostSpeed) -> Tuple[int, int, float, float]:
        failed = 0
        wall = scaled = 0.0
        for unit in self.ops:
            value, op_wall, op_scaled = speed.time(
                lambda: self.module.run_unit(unit))
            self.op_scaled[unit].append(op_scaled)
            wall += op_wall
            scaled += op_scaled
            failed += not self.check(unit, value)
        return len(self.ops), failed, wall, scaled

    def profiled_pass(self) -> None:
        for unit in self.ops:
            self.module.run_unit(unit)

    def sim_cycles(self) -> int:
        return sum(self.oracle.sim_cycles(unit) for unit in self.ops)

    def render_probe(self, spans: Spans) -> None:
        """Render the full table from the committed cell values."""
        refs = self.oracle.refs[self.experiment]
        if self.experiment == "table2":
            cells = {
                unit: self.module.Table2Cell(**value)
                for unit, value in refs.items()
            }
        else:
            cells = dict(refs)
        with spans.span("experiments.render"):
            self.module.render(self.module.combine(cells))

    def report(self) -> Dict[str, object]:
        return {
            "op_median_scaled_s": {
                unit: median(walls) for unit, walls in self.op_scaled.items()
            }
        }


class SweepWorkload:
    """The 6-point ``run_sweep`` grid."""

    sweep = True
    setup_code = (
        "from repro.builder import MachineSpec, build; "
        "import repro.builder.sweep; "
        "build(MachineSpec.from_dict({'clusters': 8}))"
    )

    def start(self, seed: int, oracle: Oracle) -> None:
        from repro.builder.sweep import expand_grid

        # The grid and its order are fixed: the high-water RSS depends on
        # the order in which machines of different sizes are built.
        self.oracle = oracle
        self.ops = expand_grid(SWEEP_AXES)
        self.artifact: Optional[Dict[str, object]] = None

    def run_pass(self, speed: HostSpeed) -> Tuple[int, int, float, float]:
        from repro.builder.sweep import run_sweep

        self.artifact, wall, scaled = speed.time(
            lambda: run_sweep(self.ops, jobs=1))
        points = self.artifact["points"]
        failed = sum(not self.oracle.sweep_point(point) for point in points)
        failed += len(self.ops) - len(points)
        return len(self.ops), failed, wall, scaled

    def run_op(
        self, fields: Dict[str, object], spans: Spans
    ) -> Tuple[bool, Dict[str, int]]:
        """One point with spans around elaboration, construction and
        measurement.  ``measure_spec`` records its full-machine run into a
        private tracer, so that run's events and cycles come back from its
        ``SweepMetrics`` instead of the ambient tracer."""
        from repro.builder import MachineSpec, build, build_config
        from repro.builder.workload import measure_spec

        spec = MachineSpec.from_dict(fields)
        with spans.span("builder.build_config"):
            build_config(spec)
        with spans.span("hardware.machine.construct"):
            build(spec)
        with spans.span("builder.measure_spec"):
            metrics = measure_spec(spec)
        point = {"spec": spec.to_dict(), "metrics": metrics.to_dict()}
        hidden = {
            "events_dispatched": metrics.events_dispatched,
            "sim_cycles": metrics.cycles,
        }
        return self.oracle.sweep_point(point), hidden

    def profiled_pass(self) -> None:
        from repro.builder.sweep import run_sweep

        run_sweep(self.ops, jobs=1)

    def sim_cycles(self) -> int:
        return sum(
            self.oracle.refs["sweep"][sweep_key(fields)]["cycles"]
            for fields in self.ops
        )

    def render_probe(self, spans: Spans) -> None:
        from repro.builder.sweep import render_report, run_sweep

        artifact = self.artifact or run_sweep(self.ops, jobs=1)
        with spans.span("experiments.render"):
            render_report(artifact)

    def report(self) -> Dict[str, object]:
        return {}


# ---------------------------------------------------------------------------
# The serving workload
# ---------------------------------------------------------------------------


def serve_configs() -> List[Dict[str, object]]:
    """Every job config the mix draws cold misses from (196 per experiment)."""
    specs: List[Optional[Dict[str, int]]] = [None] + [
        {"clusters": clusters, "memory_modules": modules, "switch_radix": radix}
        for clusters in (1, 2, 4, 8)
        for modules in (8, 16, 32, 64)
        for radix in (2, 4, 8)
    ]
    return [
        {"sanitize": sanitize, "partitions": partitions, "spec": spec}
        for sanitize in (False, True)
        for partitions in (1, 2)
        for spec in specs
    ]


class ServeMix:
    """The seeded request mix: which configs go cold, which pairs
    coalesce, and which computed results are asked for again.

    Every pass has the same shape (one cold miss and one coalesced pair
    per experiment, then :data:`WARM_PER_PASS` warm repeats), so pass
    time does not depend on the seed; the seed picks configs and order.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pools = {}
        for experiment in SERVE_EXPERIMENTS:
            pool = serve_configs()
            self.rng.shuffle(pool)
            self.pools[experiment] = pool
        self.computed: List[Tuple[str, Dict[str, object]]] = []

    def next_pass(self) -> Optional[Dict[str, List[Tuple[str, Dict[str, object]]]]]:
        """The next pass's requests, or ``None`` once configs run out."""
        if any(len(pool) < 2 for pool in self.pools.values()):
            return None
        order = list(SERVE_EXPERIMENTS)
        self.rng.shuffle(order)
        cold = [(e, self.pools[e].pop()) for e in order]
        pairs = [(e, self.pools[e].pop()) for e in order]
        self.computed.extend(cold + pairs)
        warm = [self.rng.choice(self.computed) for _ in range(WARM_PER_PASS)]
        return {"cold": cold, "pairs": pairs, "warm": warm}


class ServeSession:
    """One ``cedar-repro serve`` subprocess and the client side of the mix."""

    def __init__(self, server, oracle_renders: Callable[[str, object], str]):
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve import ServeClient

        self.server = server
        self.client = ServeClient(port=server.port, timeout=60.0)
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS)
        self.renders = oracle_renders
        #: request key -> (experiment, config, cold body)
        self.cold: Dict[str, Tuple[str, Dict[str, object], bytes]] = {}
        self.latency: Dict[str, List[float]] = {
            "cold": [], "coalesced": [], "warm": [],
        }
        self.server_ms: List[float] = []
        self.client_overhead_ms: List[float] = []

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    @staticmethod
    def key(experiment: str, config: Dict[str, object]) -> str:
        return experiment + json.dumps(config, sort_keys=True)

    def request(self, experiment: str, config: Dict[str, object]):
        """POST, follow to resolution, fetch the result bytes.  Returns
        (ms from POST to result bytes, cache status, body, job document);
        body is ``None`` on a 4xx/5xx, a timeout or a refused connection."""
        from repro.errors import ServeError

        began = time.perf_counter()
        try:
            job = self.client.submit(experiment, config)["job"]
            if job["state"] not in ("done", "failed"):
                for _ in self.client.events(job["id"]):
                    pass
            body, status = self.client.result(job["id"])
        except (ServeError, OSError):
            return (time.perf_counter() - began) * 1e3, None, None, None
        return (time.perf_counter() - began) * 1e3, status, body, job

    def miss(self, experiment: str, config: Dict[str, object]) -> bool:
        ms, status, body, _ = self.request(experiment, config)
        if body is None or status != "miss":
            return False
        self.latency["cold"].append(ms)
        self.cold[self.key(experiment, config)] = (experiment, config, body)
        return True

    def pair(self, experiment: str, config: Dict[str, object]) -> int:
        """Two identical requests at once; returns how many failed."""
        first, second = self.pool.map(
            lambda _: self.request(experiment, config), range(2)
        )
        leader, follower = sorted(
            (first, second), key=lambda outcome: outcome[1] != "miss"
        )
        if leader[2] is None or leader[1] != "miss":
            return 2
        self.latency["cold"].append(leader[0])
        self.cold[self.key(experiment, config)] = (experiment, config, leader[2])
        if follower[2] is None or follower[2] != leader[2]:
            return 1
        self.latency["coalesced"].append(follower[0])
        return 0

    def warm(self, experiment: str, config: Dict[str, object]) -> bool:
        ms, status, body, job = self.request(experiment, config)
        cold = self.cold.get(self.key(experiment, config))
        if body is None or status != "hit" or cold is None or body != cold[2]:
            return False
        self.latency["warm"].append(ms)
        server_ms = float(job.get("latency_ms", 0.0))
        self.server_ms.append(server_ms)
        self.client_overhead_ms.append(ms - server_ms)
        return True

    def run_pass(self, requests) -> Tuple[int, int]:
        failed = sum(not ok for ok in self.pool.map(
            lambda item: self.miss(*item), requests["cold"]))
        failed += sum(self.pair(*item) for item in requests["pairs"])
        failed += sum(not ok for ok in self.pool.map(
            lambda item: self.warm(*item), requests["warm"]))
        attempted = (
            len(requests["cold"]) + 2 * len(requests["pairs"])
            + len(requests["warm"])
        )
        return attempted, failed

    def check_cold_bodies(self) -> int:
        """Failures among the cold bodies: ``rendered`` must be the
        in-process rendering under the same machine spec."""
        return sum(
            not serve_body_ok(body, self.renders(experiment, config["spec"]))
            for experiment, config, body in self.cold.values()
        )


def latency_report(session: ServeSession) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for name, q in (("cold_p50_ms", 0.5), ("cold_p90_ms", 0.9),
                    ("warm_p50_ms", 0.5), ("warm_p99_ms", 0.99),
                    ("coalesced_p50_ms", 0.5)):
        samples = session.latency[name.split("_")[0]]
        out[name] = reported_percentile(samples, q)
    return out


#: The simulator workloads; ``serve-mixed`` is driven by :class:`ServeSession`.
SIMULATOR_WORKLOADS = {
    "prefetch-contention": lambda: CellWorkload("table2", TABLE2_UNITS),
    "demand-rw": lambda: CellWorkload("table1", TABLE1_UNITS),
    "sweep-shapes": SweepWorkload,
}

