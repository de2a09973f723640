"""Tests for the serve worker process side (repro.serve.worker)."""

import json
import multiprocessing

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
        assert meta["overhead_ratio"] >= 0
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
