"""Fast paths and parallel execution must not change a single result.

The perf layer makes four claims (see DESIGN.md "Idle fast-forward"):

* the engine's calendar queue produces the event stream of the
  one-at-a-time heap loop kept in ``tests/hardware/reference_engine.py``,
  including ``events_dispatched``;
* the flat crossbar switch produces the event stream of the per-output
  arbiter objects kept in ``tests/hardware/reference_crossbar.py``;
* the crossbar's head-route masks only skip wakes that could find no
  work: the production side runs sanitized, so every masked skip and
  every grant is proven against the sanitizer's unmasked reference scan;
* ``--jobs N`` only changes which process runs an experiment, never what
  the experiment computes.

These tests pin them by running real cycle-level kernels on both sides
and comparing everything that is visible: monitor histograms, the full
machine metrics registry, and engine dispatch counts.
"""

import multiprocessing
import random
import sys

import pytest

from repro.config import NetworkConfig
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.kernels.tridiag_matvec import measure_tridiag
from repro.kernels.vector_load import measure_vector_load
from repro.metrics.bench import build_snapshot
from repro.metrics.collector import MonitorCatcher, collect_tracer
from repro.metrics.registry import MetricsRegistry
from repro.trace import Tracer, tracing
from tests.hardware.reference_crossbar import ReferenceCrossbarSwitch
from tests.hardware.reference_engine import ReferenceEngine


def _reference_switch(*, route_table, **kwargs):
    """The oracle switch routes through a closure; the network hands out
    per-stage destination tables."""
    return ReferenceCrossbarSwitch(
        route=lambda packet: route_table[packet.destination], **kwargs
    )


def _traced_run(kernel):
    """Run ``kernel`` under a fresh tracer; return every observable output."""
    tracer = Tracer(enabled=True)
    catcher = MonitorCatcher(tracer)
    with tracing(tracer):
        run = kernel()
    registry = MetricsRegistry()
    collect_tracer(registry, tracer)
    catcher.collect_into(registry)
    machine = registry.as_flat_dict()
    monitors = [m.histogram_summaries() for m in catcher.monitors]
    events = tracer.counter_totals().get("engine", {}).get("events_dispatched")
    return repr(run), machine, monitors, events


def _sanitized_traced_run(kernel):
    """:func:`_traced_run` with the sanitizer armed; it must stay silent."""
    with sanitize.sanitizing() as sanitizer:
        outputs = _traced_run(kernel)
    sanitizer.finalize()
    assert sanitizer.violations == 0
    assert sanitizer.checks.get("crossbar.arbiter", 0) > 0
    return outputs


_KERNELS = pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(lambda: measure_vector_load(8), id="vector-load-8"),
        pytest.param(lambda: measure_tridiag(8), id="tridiag-8"),
    ],
)


@_KERNELS
def test_engine_matches_reference_byte_identical(kernel, monkeypatch):
    """Calendar queue (sanitized) vs the reference heap loop."""
    fast = _sanitized_traced_run(kernel)
    monkeypatch.setattr("repro.hardware.machine.Engine", ReferenceEngine)
    reference = _traced_run(kernel)
    assert fast[0] == reference[0]     # rendered kernel result
    assert fast[1] == reference[1]     # full machine registry, exact
    assert fast[2] == reference[2]     # performance-monitor histograms
    assert fast[3] == reference[3]     # engine.events_dispatched
    assert fast[3] is not None and fast[3] > 0


@_KERNELS
def test_crossbar_matches_reference_byte_identical(kernel, monkeypatch):
    """Flat per-switch crossbar (sanitized) vs per-output arbiter objects."""
    flat = _sanitized_traced_run(kernel)
    monkeypatch.setattr(
        "repro.hardware.network.CrossbarSwitch", _reference_switch
    )
    reference = _traced_run(kernel)
    assert flat[0] == reference[0]     # rendered kernel result
    assert flat[1] == reference[1]     # full machine registry, exact
    assert flat[2] == reference[2]     # performance-monitor histograms
    assert flat[3] == reference[3]     # engine.events_dispatched
    assert flat[3] is not None and flat[3] > 0


def test_production_snapshot_matches_its_own_rerun():
    """Production runs are themselves deterministic across repeats."""
    first = _traced_run(lambda: measure_vector_load(8))
    second = _traced_run(lambda: measure_vector_load(8))
    assert first == second


def test_parallel_snapshot_identical_to_sequential():
    keys = ["figure3", "table5", "table6"]
    sequential = build_snapshot(keys, 0, jobs=1)
    parallel = build_snapshot(keys, 0, jobs=4)
    assert list(parallel[0]["experiments"]) == keys  # key order, not completion
    assert sequential == parallel


def _fuzz_network_run(seed, engine_class=Engine):
    """Random traffic through a 2-stage network of 4x4 crossbars.

    Runs with the sanitizer armed (its checks must neither perturb the
    simulation nor fire) and returns every observable: the exact delivery
    stream (port, packet id, cycle), the dispatch count, and occupancy,
    followed by the number of crossbar checks the sanitizer ran (zero on
    the reference crossbar, which does not report to it).
    """
    rng = random.Random(seed)
    flows = [
        (rng.randrange(16), rng.randrange(16), rng.randint(1, 4))
        for _ in range(rng.randint(30, 120))
    ]
    with sanitize.sanitizing() as sanitizer:
        engine = engine_class()
        network = OmegaNetwork(
            engine, 16, NetworkConfig(switch_radix=4), name="fuzz"
        )
        assert network.num_stages == 2
        deliveries = []
        for port in range(16):
            # packet_id is a process-global counter, so the differential
            # runs tag packets with their per-run flow index instead.
            network.attach_sink(
                port,
                lambda packet, p=port: deliveries.append(
                    (p, packet.request_tag, engine.now)
                ),
            )
        queue = [
            Packet(
                kind=PacketKind.READ_REQUEST,
                source=source,
                destination=destination,
                address=destination,
                words=words,
                request_tag=index,
            )
            for index, (source, destination, words) in enumerate(flows)
        ]

        def pump():
            remaining = [
                packet for packet in queue
                if not network.try_inject(packet.source, packet)
            ]
            queue[:] = remaining
            if remaining:
                engine.schedule(1, pump)

        engine.schedule(0, pump)
        engine.run()
    sanitizer.finalize()
    assert sanitizer.violations == 0
    assert len(deliveries) == len(flows)
    return (
        tuple(deliveries),
        engine.events_dispatched,
        network.occupancy_words(),
        sanitizer.checks.get("crossbar.arbiter", 0),
    )


def _in_scan_of(switch):
    """Whether ``switch.wake_all`` is on the call stack."""
    scan = type(switch).wake_all.__code__
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is scan and frame.f_locals.get("self") is switch:
            return True
        frame = frame.f_back
    return False


def _reentrant_injection_run():
    """Port 0 floods its stage-0 switch through a one-word-port network.

    Each cycle its entry queue is full queues a space waiter that injects
    a packet at port 4, another input of the same switch, while the grant
    that freed the space is still on the stack.  Returns the delivery
    stream, the port-conflict total, ``events_dispatched`` and how many
    waiter injections ran inside that switch's own scan.
    """
    tracer = Tracer(enabled=True)
    with sanitize.sanitizing() as sanitizer:
        engine = Engine()
        tracer.set_clock(lambda: engine.now)
        network = OmegaNetwork(
            engine, 16, NetworkConfig(switch_radix=4, port_queue_words=1),
            name="reenter", tracer=tracer,
        )
        switch = network.stages[0][0]
        assert network._entry_queues[0] in switch.input_queues
        assert network._entry_queues[4] in switch.input_queues
        deliveries = []
        for port in range(16):
            network.attach_sink(
                port,
                lambda packet, p=port: deliveries.append(
                    (p, packet.request_tag, engine.now)
                ),
            )

        def make(tag, source, destination, words):
            return Packet(
                kind=PacketKind.READ_REQUEST, source=source,
                destination=destination, address=destination, words=words,
                request_tag=tag,
            )

        # Chosen so that one re-entrant injection heads for a higher output
        # of the same switch whose sink is full: the resumed scan must
        # count that conflict again, as the per-output arbiters do.
        flood = [make(i, 0, (8, 3, 15)[i % 3], 1 + i % 2) for i in range(40)]
        side = [make(100 + i, 4, (5, 14, 9)[i % 3], 2) for i in range(12)]
        # Port 1 feeds another stage-0 switch into the same stage-1
        # switches, so stage-1 queues back up and stage-0 outputs conflict.
        rival = [make(200 + i, 1, (2, 15)[i % 2], 2) for i in range(20)]
        in_scan = []

        def on_space():
            in_scan.append(_in_scan_of(switch))
            if side and network.try_inject(4, side[0]):
                side.pop(0)

        def pump():
            # Every cycle the flood stays blocked queues one more waiter,
            # so grants of port 0's head from any scan fire one.
            while rival and network.try_inject(1, rival[0]):
                rival.pop(0)
            while flood and network.try_inject(0, flood[0]):
                flood.pop(0)
            if flood:
                network.on_entry_space(0, on_space)
            if flood or rival:
                engine.schedule(1, pump)

        engine.schedule(0, pump)
        engine.run()
        while side:  # leftovers the waiters could not place
            if network.try_inject(4, side[0]):
                side.pop(0)
            engine.run()
    sanitizer.finalize()
    assert sanitizer.violations == 0
    assert len(deliveries) == 72
    conflicts = sum(
        totals.get("port_conflicts", 0)
        for totals in tracer.counter_totals().values()
    )
    return tuple(deliveries), conflicts, engine.events_dispatched, sum(in_scan)


def test_reentrant_stage0_injection_matches_reference(monkeypatch):
    """A stage-0 space waiter injects into the switch whose scan is
    granting: the scan must re-read its masks after the grant, and the
    result must equal the per-output arbiter oracle's."""
    flat = _reentrant_injection_run()
    assert flat[3] > 0  # the waiter really re-entered a running scan
    assert flat[1] > 0  # and the run saw port conflicts
    monkeypatch.setattr(
        "repro.hardware.network.CrossbarSwitch", _reference_switch
    )
    oracle = _reentrant_injection_run()
    assert flat[:3] == oracle[:3]  # deliveries, port_conflicts, events


# ---------------------------------------------------------------------------
# Partitioned execution (--partitions N): sharding must be invisible
# ---------------------------------------------------------------------------

_KERNEL_UNITS = {
    "vl:4": lambda: measure_vector_load(4),
    "vl:8": lambda: measure_vector_load(8),
    "td:4": lambda: measure_tridiag(4),
    "td:8": lambda: measure_tridiag(8),
}


def _register_kernel_experiment(monkeypatch):
    """Register a tiny unit-decomposed experiment over real kernels.

    Worker processes inherit the patched registry through fork, so the
    partitioned runner resolves the same experiment in every shard.
    """
    from repro.experiments import registry

    experiment = registry.Experiment(
        key="kernel-grid",
        description="real cycle-level kernels as independent units",
        run=lambda: {
            name: repr(run()) for name, run in _KERNEL_UNITS.items()
        },
        render=lambda result: "\n".join(
            f"{name}: {result[name]}" for name in sorted(result)
        ),
        units=lambda: list(_KERNEL_UNITS),
        run_unit=lambda name: repr(_KERNEL_UNITS[name]()),
        combine=lambda results: {
            name: results[name] for name in _KERNEL_UNITS
        },
    )
    monkeypatch.setitem(registry.EXPERIMENTS, "kernel-grid", experiment)
    return experiment


@pytest.mark.parametrize("partitions", [2, 4])
def test_partitioned_kernels_byte_identical(monkeypatch, partitions):
    """--partitions 2/4 vs 1 on real kernels: every artifact identical."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("worker processes inherit the test registry via fork")
    from repro.partition import run_partitioned

    _register_kernel_experiment(monkeypatch)
    single = run_partitioned(
        "kernel-grid", 1, sanitized=True, traced=True
    )
    sharded = run_partitioned(
        "kernel-grid", partitions, sanitized=True, traced=True
    )
    assert sharded.rendered == single.rendered
    assert sharded.result == single.result
    assert sharded.sanitizer == single.sanitizer
    assert sharded.sanitizer["violations"] == 0
    assert sharded.trace_bytes == single.trace_bytes
    assert sharded.telemetry["partitions"] == partitions
    assert sharded.telemetry["units"] == len(_KERNEL_UNITS)
    busy = [
        stat for stat in sharded.telemetry["partition_stats"]
        if stat["units"] > 0
    ]
    assert len(busy) == min(partitions, len(_KERNEL_UNITS))
    assert all(stat["events_dispatched"] > 0 for stat in busy)


def test_partitioned_run_matches_single_process_run(monkeypatch):
    """combine({u: run_unit(u)}) is exactly run(): the sharding contract."""
    experiment = _register_kernel_experiment(monkeypatch)
    direct = experiment.run()
    reassembled = experiment.combine(
        {name: experiment.run_unit(name) for name in experiment.units()}
    )
    assert reassembled == direct


@pytest.mark.parametrize("key", ["table1", "table2", "ppt4"])
def test_registry_unit_decompositions_cover_run(key):
    """Every registered decomposition reassembles run() exactly."""
    from repro.experiments.registry import get_experiment

    experiment = get_experiment(key)
    if experiment.units is None:
        pytest.skip(f"{key} declares no unit decomposition")
    units = experiment.units()
    assert len(units) == len(set(units))  # unit names are unique
    assert units  # and non-empty


@pytest.mark.parametrize("seed", [0, 7, 1993])
def test_fuzzed_network_matches_reference_engine(seed, monkeypatch):
    """Differential fuzz, sanitizer armed in every run: calendar queue vs
    the reference heap loop, and flat crossbar vs the reference crossbar.

    Under arbitrary contention the calendar queue and the flat switch must
    be invisible (byte-identical delivery streams, identical
    ``events_dispatched``), and every masked crossbar skip and grant must
    pass the sanitizer's unmasked reference scan.
    """
    fast = _fuzz_network_run(seed)
    assert fast[3] > 0  # the flat switch reported every scan
    reference = _fuzz_network_run(seed, ReferenceEngine)
    assert fast[0] == reference[0]  # (port, packet_id, cycle) stream
    assert fast[1] == reference[1]  # events_dispatched
    assert fast[2] == reference[2] == 0  # network fully drained
    monkeypatch.setattr(
        "repro.hardware.network.CrossbarSwitch", _reference_switch
    )
    oracle = _fuzz_network_run(seed)
    assert fast[:3] == oracle[:3]
