"""Unit-sharded partitioned execution behind ``--partitions N``.

Experiments shard their independent machine-run units across worker
processes (DESIGN.md §10); the planner, the round-robin sharding, crash
surfacing and profile merging are pinned here.
"""

import multiprocessing
import os

import pytest

from repro.errors import WorkerCrashError
from repro.partition import (
    WHOLE_UNIT,
    merge_profile_stats,
    plan_units,
    run_partitioned,
    shard_units,
)


def _fork_only():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("worker processes inherit test state via fork")


class TestShardRuntime:
    def test_plan_units_whole_fallback(self):
        assert plan_units("table6") == [WHOLE_UNIT]

    def test_plan_units_declared_decomposition(self):
        units = plan_units("table2")
        assert len(units) == len(set(units)) > 1

    def test_shard_units_round_robin(self):
        assert shard_units(["a", "b", "c", "d", "e"], 2) == [
            ["a", "c", "e"],
            ["b", "d"],
        ]
        assert shard_units(["a"], 3) == [["a"], [], []]
        with pytest.raises(ValueError):
            shard_units(["a"], 0)

    def test_more_partitions_than_units_leaves_idle_shards(self):
        run = run_partitioned("table6", 3)
        assert [s["units"] for s in run.telemetry["partition_stats"]] == [
            1, 0, 0,
        ]
        assert run.telemetry["events_dispatched"] >= 0

    def test_shard_worker_crash_surfaces(self, monkeypatch):
        """A killed shard worker raises WorkerCrashError, never hangs."""
        _fork_only()
        from repro.experiments import registry

        experiment = registry.Experiment(
            key="crashy",
            description="one unit dies without reporting",
            run=lambda: None,
            render=lambda result: "",
            units=lambda: ["ok", "boom"],
            run_unit=lambda name: os._exit(3) if name == "boom" else name,
            combine=lambda results: results,
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "crashy", experiment)
        with pytest.raises(WorkerCrashError):
            run_partitioned("crashy", 2)

    def test_merge_profile_stats_sums_counts_and_callers(self):
        func = ("file.py", 1, "f")
        caller = ("file.py", 9, "main")
        first = {func: (1, 2, 0.5, 1.0, {caller: (1, 2, 0.5, 1.0)})}
        second = {func: (3, 4, 1.5, 2.0, {caller: (3, 4, 1.5, 2.0)})}
        merged = merge_profile_stats([first, second])
        cc, nc, tt, ct, callers = merged[func]
        assert (cc, nc, tt, ct) == (4, 6, 2.0, 3.0)
        assert callers[caller] == (4, 6, 2.0, 3.0)

    def test_uninstrumented_run_counts_no_events(self):
        run = run_partitioned("table6", 1, instrumented=False)
        assert run.telemetry["events_dispatched"] == 0.0
        assert run.rendered == run_partitioned("table6", 1).rendered

    def test_telemetry_tracer_counts_events_without_records(self, monkeypatch):
        """Partition telemetry reads only counter totals, so its per-unit
        tracer is counters-only, yet counts every event a recording
        tracer does."""
        from repro.experiments import registry
        from repro.hardware.ce import Compute
        from repro.hardware.machine import CedarMachine
        from repro.trace import current_tracer

        buses = []

        def kernel(ce):
            yield Compute(10, flops=1.0)

        def run_unit(name):
            buses.append(current_tracer())
            CedarMachine().run_kernel(kernel, num_ces=int(name))
            return name

        experiment = registry.Experiment(
            key="tiny",
            description="two small machine runs",
            run=lambda: None,
            render=lambda result: repr(result),
            units=lambda: ["2", "4"],
            run_unit=run_unit,
            combine=lambda results: results,
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "tiny", experiment)
        counted = run_partitioned("tiny", 1)
        assert [bus.keeps_records for bus in buses] == [False, False]
        assert [bus.num_records for bus in buses] == [0, 0]
        traced = run_partitioned("tiny", 1, traced=True)
        assert buses[-1].num_records > 0
        assert counted.rendered == traced.rendered
        events = counted.telemetry["events_dispatched"]
        assert events == traced.telemetry["events_dispatched"] > 0
