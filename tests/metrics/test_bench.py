"""Tests for bench snapshots and regression detection (repro.metrics.bench)."""

import json

import pytest

from repro.cli import main
from repro.errors import BenchError
from repro.metrics import bench


def make_snapshot(index, fidelity=None, machine=None, profile=None, key="table6"):
    """Hand-build a minimal schema-valid snapshot for comparison tests."""
    return {
        "schema": bench.SCHEMA,
        "schema_version": bench.SCHEMA_VERSION,
        "snapshot": index,
        "traced": True,
        "experiments": {
            key: {
                "description": "test experiment",
                "fidelity": [
                    {"name": name, "value": value, "unit": "", "target": None}
                    for name, value in (fidelity or {}).items()
                ],
                "machine": dict(machine or {}),
                "self_profile": dict(profile or {}),
            }
        },
    }


class TestCompare:
    def test_identical_snapshots_clean(self):
        snapshot = make_snapshot(
            0,
            fidelity={"speedup": 1.8},
            machine={"sim_wall_cycles": 12345},
            profile={"wall_seconds": 2.0, "events_per_sec": 1e6},
        )
        report = bench.compare_snapshots(snapshot, make_snapshot(1, **{
            "fidelity": {"speedup": 1.8},
            "machine": {"sim_wall_cycles": 12345},
            "profile": {"wall_seconds": 2.0, "events_per_sec": 1e6},
        }))
        assert report.compared == 4
        assert report.findings == []
        assert report.ok
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 0
        assert "no drift beyond tolerance" in report.render()

    def test_exact_boundary_passes_just_above_fails(self):
        # tolerance is inclusive: |rel change| == tol is OK
        base = make_snapshot(0, fidelity={"m": 100.0})
        at_boundary = make_snapshot(1, fidelity={"m": 110.0})
        report = bench.compare_snapshots(
            base, at_boundary, tolerances={"fidelity": 0.1}
        )
        assert report.findings == []
        above = make_snapshot(1, fidelity={"m": 110.0 + 1e-6})
        report = bench.compare_snapshots(base, above, tolerances={"fidelity": 0.1})
        assert [f.severity for f in report.findings] == ["fail"]

    def test_fidelity_drift_hard_fails(self):
        base = make_snapshot(0, fidelity={"speedup": 1.8})
        drifted = make_snapshot(1, fidelity={"speedup": 1.7})
        report = bench.compare_snapshots(base, drifted)
        assert len(report.failures) == 1
        finding = report.failures[0]
        assert finding.metric_class == "fidelity"
        assert finding.experiment == "table6"
        assert finding.rel_change == pytest.approx(-1 / 18)
        assert not report.ok
        assert report.exit_code() == 1
        assert "FAIL" in report.render()

    def test_machine_drift_fails(self):
        base = make_snapshot(0, machine={"sim_busy_cycles{component=sp}": 1000})
        drifted = make_snapshot(1, machine={"sim_busy_cycles{component=sp}": 1001})
        report = bench.compare_snapshots(base, drifted)
        assert [f.metric_class for f in report.failures] == ["machine"]
        assert report.exit_code() == 1

    def test_slowdown_warns_and_strict_exits_3(self):
        base = make_snapshot(0, profile={"wall_seconds": 1.0})
        slower = make_snapshot(1, profile={"wall_seconds": 2.0})  # 100% > 50%
        report = bench.compare_snapshots(base, slower)
        assert report.failures == []
        assert [f.severity for f in report.findings] == ["warn"]
        assert report.ok  # warnings alone do not fail ...
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 3  # ... unless strict

    def test_speedup_is_informational(self):
        # direction-aware: less wall time / more events per second is fine
        base = make_snapshot(
            0, profile={"wall_seconds": 2.0, "events_per_sec": 1e6}
        )
        faster = make_snapshot(
            1, profile={"wall_seconds": 0.5, "events_per_sec": 4e6}
        )
        report = bench.compare_snapshots(base, faster)
        assert report.warnings == []
        assert {f.severity for f in report.findings} == {"info"}
        assert report.exit_code(strict=True) == 0

    def test_uncompared_profile_series_are_ignored(self):
        # component_busy_share etc. are not in the direction map: no findings
        base = make_snapshot(0, profile={"events_processed": 100})
        current = make_snapshot(1, profile={"events_processed": 900})
        report = bench.compare_snapshots(base, current)
        assert report.compared == 0
        assert report.findings == []

    def test_one_sided_metric_is_informational(self):
        base = make_snapshot(0, fidelity={"old_metric": 1.0})
        current = make_snapshot(1, fidelity={"new_metric": 2.0})
        report = bench.compare_snapshots(base, current)
        assert report.failures == []
        severities = {f.metric: f.severity for f in report.findings}
        assert severities == {"old_metric": "info", "new_metric": "info"}
        rendered = report.render()
        assert "metric disappeared" in rendered
        assert "new metric" in rendered

    def test_only_common_experiments_compared(self):
        # a --quick run diffs cleanly against a full baseline
        base = make_snapshot(0, fidelity={"m": 1.0}, key="table1")
        current = make_snapshot(1, fidelity={"m": 999.0}, key="table6")
        report = bench.compare_snapshots(base, current)
        assert report.compared == 0
        assert report.findings == []

    def test_tolerance_override(self):
        base = make_snapshot(0, machine={"m": 100.0})
        current = make_snapshot(1, machine={"m": 101.0})
        relaxed = bench.compare_snapshots(
            base, current, tolerances={"machine": 0.05}
        )
        assert relaxed.findings == []
        strict = bench.compare_snapshots(base, current)
        assert len(strict.failures) == 1


class TestSnapshotFiles:
    def test_numbering_and_latest(self, tmp_path):
        assert bench.existing_snapshots(str(tmp_path)) == []
        assert bench.latest_snapshot_path(str(tmp_path)) is None
        assert bench.next_snapshot_index(str(tmp_path)) == 0
        for index in (0, 2, 10):
            bench.save_snapshot(make_snapshot(index), str(tmp_path / f"BENCH_{index}.json"))
        (tmp_path / "BENCH_x.json").write_text("{}")  # not a snapshot name
        snapshots = bench.existing_snapshots(str(tmp_path))
        assert [index for index, _ in snapshots] == [0, 2, 10]
        assert bench.latest_snapshot_path(str(tmp_path)).endswith("BENCH_10.json")
        assert bench.next_snapshot_index(str(tmp_path)) == 11

    def test_missing_directory(self, tmp_path):
        with pytest.raises(BenchError, match="does not exist"):
            bench.existing_snapshots(str(tmp_path / "nope"))

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_0.json")
        snapshot = make_snapshot(0, fidelity={"m": 1.5})
        bench.save_snapshot(snapshot, path)
        assert bench.load_snapshot(path) == snapshot

    def test_load_rejects_bad_files(self, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        with pytest.raises(BenchError, match="cannot load"):
            bench.load_snapshot(str(garbage))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(BenchError, match="not a cedar-repro-bench"):
            bench.load_snapshot(str(wrong))
        future = tmp_path / "future.json"
        future.write_text(
            json.dumps({"schema": bench.SCHEMA, "schema_version": 999})
        )
        with pytest.raises(BenchError, match="schema version"):
            bench.load_snapshot(str(future))


class TestBenchExperiment:
    def test_sections_present(self):
        section = bench.bench_experiment("table6")
        assert section["description"]
        assert section["fidelity"], "experiment must declare headline metrics"
        for metric in section["fidelity"]:
            assert set(metric) >= {"name", "value", "unit", "target"}
        assert section["machine"], "traced run must drain machine series"
        profile = section["self_profile"]
        assert profile["wall_seconds"] > 0

    def test_untraced_run_still_has_fidelity(self):
        # the registry must not require a recording tracer
        section = bench.bench_experiment("table6", trace=False)
        assert section["fidelity"]
        assert section["machine"] == {}
        assert list(section["self_profile"]) == ["wall_seconds"]

    def test_deterministic_fidelity_and_machine(self):
        first = bench.bench_experiment("table6")
        second = bench.bench_experiment("table6")
        assert first["fidelity"] == second["fidelity"]
        assert first["machine"] == second["machine"]

    def test_build_snapshot_document(self):
        seen = []
        snapshot = bench.build_snapshot(
            ["table6"], 7, trace=False, progress=seen.append
        )
        assert seen == ["table6"]
        assert snapshot["schema"] == bench.SCHEMA
        assert snapshot["schema_version"] == bench.SCHEMA_VERSION
        assert snapshot["snapshot"] == 7
        assert snapshot["traced"] is False
        assert list(snapshot["experiments"]) == ["table6"]

    def test_parallel_build_snapshot_merges_in_key_order(self):
        seen = []
        keys = ["table6", "table5", "figure3"]  # deliberately unsorted
        snapshot = bench.build_snapshot(
            keys, 3, trace=False, progress=seen.append, jobs=3
        )
        assert sorted(seen) == sorted(keys)  # progress is completion-order
        assert list(snapshot["experiments"]) == keys  # sections are key-order
        sequential = bench.build_snapshot(keys, 3, trace=False, jobs=1)
        for doc in (snapshot, sequential):
            for section in doc["experiments"].values():
                section.pop("self_profile", None)
        assert snapshot == sequential

    def test_single_key_ignores_jobs(self):
        snapshot = bench.build_snapshot(["table6"], 0, trace=False, jobs=8)
        assert list(snapshot["experiments"]) == ["table6"]


class TestBenchCli:
    def run_bench(self, tmp_path, *extra):
        return main(["bench", "table6", "--dir", str(tmp_path), *extra])

    def test_first_run_records_then_second_is_clean(self, tmp_path, capsys):
        assert self.run_bench(tmp_path) == 0
        captured = capsys.readouterr()
        assert "no baseline snapshot" in captured.err
        assert (tmp_path / "BENCH_0.json").exists()

        assert self.run_bench(tmp_path) == 0
        captured = capsys.readouterr()
        assert "BENCH_0.json" in captured.err  # picked up as baseline
        assert (tmp_path / "BENCH_1.json").exists()
        assert "0 failure(s)," in captured.out
        # A ~10 ms run's wall clock can drift past the self_profile
        # tolerance (warn-only host noise); fidelity and machine series
        # are deterministic and must not move at all.
        findings = [
            line
            for line in captured.out.splitlines()
            if line.startswith(("  FAIL  ", "  WARN  ", "  info  "))
        ]
        assert all("[self_profile]" in line for line in findings), findings

    def test_tampered_baseline_fails_with_exit_1(self, tmp_path, capsys):
        assert self.run_bench(tmp_path) == 0
        path = tmp_path / "BENCH_0.json"
        snapshot = json.loads(path.read_text())
        metric = snapshot["experiments"]["table6"]["fidelity"][0]
        metric["value"] = float(metric["value"]) * 1.5  # inject fidelity drift
        path.write_text(json.dumps(snapshot))
        capsys.readouterr()
        assert self.run_bench(tmp_path) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_keys_and_quick_conflict(self, tmp_path, capsys):
        assert self.run_bench(tmp_path, "--quick") == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        assert main(["bench", "table99", "--dir", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["bench", "table6", "--dir", missing]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_baseline_none_skips_comparison(self, tmp_path, capsys):
        assert self.run_bench(tmp_path) == 0
        capsys.readouterr()
        assert self.run_bench(tmp_path, "--baseline", "none") == 0
        captured = capsys.readouterr()
        assert "baseline" not in captured.err
        assert "Regression report" not in captured.out

    def test_explicit_out_path(self, tmp_path, capsys):
        out = tmp_path / "custom.json"
        assert self.run_bench(tmp_path, "--out", str(out)) == 0
        assert out.exists()
        loaded = bench.load_snapshot(str(out))
        assert list(loaded["experiments"]) == ["table6"]
