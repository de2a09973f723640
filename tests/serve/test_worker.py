"""Tests for the serve worker process side (repro.serve.worker)."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import worker
from repro.trace import TraceSnapshot


def _fork_only():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("partitioned workers fork from the test process")


class TestProgressTracer:
    def test_progress_keys_off_appended_not_retained(self, monkeypatch):
        """Ring evictions must not change the emitted progress stream."""
        monkeypatch.setattr(worker, "PROGRESS_INTERVAL", 10)
        streams = []
        for max_records in (4, 1000):  # heavy eviction vs none
            events = []
            tracer = worker.ProgressTracer(events.append, max_records=max_records)
            for i in range(25):
                tracer.instant("c", "tick", cycle=i, value=i)
            streams.append([e for e in events if e["type"] == "progress"])
        assert streams[0] == streams[1]
        assert [e["records"] for e in streams[0]] == [10, 20]

    def test_bounded_ring_keeps_recent_window(self):
        events = []
        tracer = worker.ProgressTracer(events.append, max_records=8)
        for i in range(20):
            tracer.instant("c", "tick", cycle=i, value=i)
        assert tracer.num_records == 8
        assert tracer.dropped == 12
        assert tracer.records_seen == 20
        snap = TraceSnapshot.from_bytes(tracer.snapshot().to_bytes())
        assert snap.column("instants", "cycle") == list(range(12, 20))

    def test_set_clock_emits_epoch_events(self):
        events = []
        tracer = worker.ProgressTracer(events.append, max_records=8)
        tracer.set_clock(lambda: 0)
        tracer.set_clock(lambda: 0)
        epochs = [e["epoch"] for e in events if e["type"] == "epoch"]
        assert epochs == [0, 1]


class TestExecuteJob:
    def test_returns_result_trace_and_telemetry(self):
        events = []
        outcome = worker.execute_job(
            {"experiment": "table6", "config": {"sanitize": False}},
            events.append,
        )
        assert set(outcome) == {"result", "trace", "trace_meta"}
        record = json.loads(outcome["result"].decode("utf-8"))
        assert record["experiment"] == "table6"
        snap = TraceSnapshot.from_bytes(outcome["trace"])
        meta = outcome["trace_meta"]
        assert meta["records_seen"] == snap.records_seen > 0
        assert meta["records_retained"] == snap.num_records
        assert meta["wall_seconds"] > 0
        assert meta["simulate_ms"] == meta["wall_seconds"] * 1000.0
        assert meta["serialize_ms"] > 0
        assert "overhead_ratio" not in meta
        assert "overhead_per_record_ns" not in meta
        types = [e["type"] for e in events]
        assert types[0] == "running" and types[-1] == "finished"

    def test_result_bytes_stay_trace_free_and_deterministic(self):
        run = lambda: worker.execute_job(  # noqa: E731
            {"experiment": "table6", "config": {}}, lambda data: None
        )
        first, second = run(), run()
        assert first["result"] == second["result"]
        assert b"overhead" not in first["result"]
        assert b"wall_seconds" not in first["result"]


class TestNoCalibration:
    """Neither serve jobs nor traced runs calibrate the tracer's cost."""

    @staticmethod
    def _forbid_calibration(monkeypatch):
        from repro.trace import tracer as tracer_module

        def calibrate(store_class):
            raise AssertionError("the tracer cost calibration ran")

        monkeypatch.setattr(tracer_module, "_per_record_cost", calibrate)

    def test_execute_job_never_calibrates(self, monkeypatch):
        self._forbid_calibration(monkeypatch)
        outcome = worker.execute_job(
            {"experiment": "table6", "config": {}}, lambda data: None
        )
        assert outcome["trace_meta"]["records_seen"] > 0

    def test_traced_partitioned_run_never_calibrates(self, monkeypatch):
        from repro.partition import run_partitioned

        _fork_only()  # the shard children inherit the patched module
        self._forbid_calibration(monkeypatch)
        run = run_partitioned("table6", 2, traced=True)
        assert run.trace_bytes
        assert set(run.trace_meta) == {
            "records", "records_seen", "dropped", "buffer_bytes",
        }


class TestPartitionedJob:
    def test_partitioned_record_matches_single_modulo_config(self):
        _fork_only()
        events = []
        sharded = worker.build_record(
            "table6", {"partitions": 2, "sanitize": True}, events.append
        )
        single = worker.build_record(
            "table6", {"partitions": 1, "sanitize": True}, lambda data: None
        )
        assert sharded["rendered"] == single["rendered"]
        assert sharded["result"] == single["result"]
        assert sharded["sanitizer"] == single["sanitizer"]
        # Only the config coordinate (part of the cache key) differs.
        assert sharded["config"]["partitions"] == 2
        marks = [e for e in events if e["type"] == "partitioned"]
        assert len(marks) == 1 and marks[0]["partitions"] == 2

    def test_two_busy_shards_fork_from_the_job_worker(self, monkeypatch):
        """A job whose experiment has units forks one shard child per busy
        shard from its own (non-daemonic) worker process."""
        _fork_only()
        from repro.experiments import registry
        from repro.parallel import run_in_process
        from repro.serve.schema import canonical_config

        experiment = registry.Experiment(
            key="pids",
            description="each unit reports the process that ran it",
            run=lambda: None,
            render=repr,
            units=lambda: ["a", "b"],
            run_unit=lambda name: os.getpid(),
            combine=lambda results: results,
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "pids", experiment)
        payload = {"experiment": "pids", "config": canonical_config({"partitions": 2})}
        outcome = run_in_process(
            worker.execute_job, "pids", payload, daemon=False,
        )
        pids = json.loads(outcome["result"])["result"]
        assert len(set(pids.values())) == 2
        assert os.getpid() not in pids.values()


class TestSpecOverride:
    """The ``spec`` config key swaps the machine under the experiment."""

    @staticmethod
    def _register_probe(monkeypatch):
        from repro.experiments import registry
        from repro.kernels.vector_load import measure_vector_load

        experiment = registry.Experiment(
            key="vl-probe",
            description="one vector-load window",
            run=lambda: repr(measure_vector_load(4)),
            render=lambda result: result,
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "vl-probe", experiment)

    @staticmethod
    def _job_config(partitions: int, spec=None):
        """A sharded job also arms the sanitizer: spec x partitions x
        sanitize is the combination that once crashed through serve."""
        from repro.serve.schema import canonical_config

        if partitions > 1:
            _fork_only()
        overrides = {"partitions": partitions, "sanitize": partitions > 1}
        if spec is not None:
            overrides["spec"] = spec
        return canonical_config(overrides)

    def _check_spec_reshapes(self, monkeypatch, partitions: int) -> None:
        self._register_probe(monkeypatch)
        default = worker.build_record("vl-probe", self._job_config(partitions))
        config = self._job_config(partitions, {"memory_modules": 8})
        reshaped = worker.build_record("vl-probe", config)
        assert reshaped["result"] != default["result"]
        assert reshaped["config"]["spec"]["memory_modules"] == 8
        if partitions > 1:
            unsharded = worker.build_record(
                "vl-probe", dict(config, partitions=1)
            )
            assert unsharded.pop("config") != reshaped.pop("config")
            assert reshaped == unsharded

    def test_spec_reshapes_the_machine(self, monkeypatch):
        self._check_spec_reshapes(monkeypatch, partitions=1)

    def test_spec_reshapes_the_sharded_machine(self, monkeypatch):
        self._check_spec_reshapes(monkeypatch, partitions=2)

    def test_cedar_spec_reproduces_the_default_result(self, monkeypatch):
        from repro.serve.schema import canonical_config

        self._register_probe(monkeypatch)
        default = worker.build_record("vl-probe", canonical_config(None))
        explicit = worker.build_record(
            "vl-probe", canonical_config({"spec": {}})
        )
        # Same simulation bytes; only the provenance coordinate differs.
        assert explicit["result"] == default["result"]
        assert explicit["config"] != default["config"]

    def _check_override_does_not_leak(self, monkeypatch, partitions: int):
        from repro.config import DEFAULT_CONFIG, active_config

        self._register_probe(monkeypatch)
        worker.build_record(
            "vl-probe", self._job_config(partitions, {"memory_modules": 8})
        )
        assert active_config() is DEFAULT_CONFIG

    def test_override_does_not_leak_out_of_the_job(self, monkeypatch):
        self._check_override_does_not_leak(monkeypatch, partitions=1)

    def test_override_does_not_leak_out_of_a_sharded_job(self, monkeypatch):
        self._check_override_does_not_leak(monkeypatch, partitions=2)


class TestPreloadBeforeFork:
    """Serve imports the whole job path before its first job worker forks."""

    SERVE_EXPERIMENTS = (
        "table3", "table4", "table5", "table6", "figure3", "restructuring",
    )

    def test_forked_jobs_import_nothing(self):
        """A fresh interpreter runs serve's start-up import step, then forks
        a job worker that runs every serve experiment with a ``spec``
        config and two partitions: the worker must import no module."""
        _fork_only()
        script = f"""
import json, os, sys
from repro.serve.schema import canonical_config
from repro.serve.worker import execute_job, preload

preload()
config = canonical_config({{"partitions": 2, "spec": {{"memory_modules": 16}}}})
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    report = {{"error": "the job worker did not finish"}}
    try:
        before = set(sys.modules)
        for key in {self.SERVE_EXPERIMENTS!r}:
            execute_job({{"experiment": key, "config": config}}, lambda data: None)
        report = {{"added": sorted(
            name for name in set(sys.modules) - before
            if name.split(".")[0] == "repro"
        )}}
    except Exception as error:
        report = {{"error": repr(error)}}
    finally:
        os.write(write_end, json.dumps(report).encode())
        os._exit(0)
os.close(write_end)
with os.fdopen(read_end, "rb") as stream:
    body = stream.read()
os.waitpid(pid, 0)
print(body.decode())
"""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("CEDAR_SANITIZE", None)
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=str(root), env=env,
            capture_output=True, text=True, check=True, timeout=300,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {"added": []}, report
