"""Tests for bench snapshots and regression detection (repro.metrics.bench)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import BenchError
from repro.metrics import bench

BENCH_3 = Path(__file__).resolve().parents[2] / "BENCH_3.json"

#: The record-derived gauges a recording tracer fed into ``machine`` up to
#: BENCH_3; the counters-only bench tracer keeps no records.
RECORD_GAUGES = (
    "sim_trace_buffer_bytes",
    "sim_trace_dropped",
    "sim_trace_interned_strings",
    "sim_trace_kind_records{kind=instants}",
    "sim_trace_kind_records{kind=samples}",
    "sim_trace_kind_records{kind=spans}",
    "sim_trace_records",
)


def make_snapshot(index, fidelity=None, machine=None, key="table6"):
    """Hand-build a minimal schema-valid snapshot for comparison tests."""
    return {
        "schema": bench.SCHEMA,
        "schema_version": bench.SCHEMA_VERSION,
        "snapshot": index,
        "experiments": {
            key: {
                "description": "test experiment",
                "fidelity": [
                    {"name": name, "value": value, "unit": "", "target": None}
                    for name, value in (fidelity or {}).items()
                ],
                "machine": dict(machine or {}),
            }
        },
    }


def make_v1_snapshot(index, profile, **sections):
    """A schema-1 snapshot: version 2's sections plus a ``self_profile``."""
    snapshot = make_snapshot(index, **sections)
    snapshot["schema_version"] = 1
    snapshot["traced"] = True
    for section in snapshot["experiments"].values():
        section["self_profile"] = dict(profile)
    return snapshot


class TestCompare:
    def test_identical_snapshots_clean(self):
        sections = {
            "fidelity": {"speedup": 1.8},
            "machine": {"sim_wall_cycles": 12345},
        }
        report = bench.compare_snapshots(
            make_snapshot(0, **sections), make_snapshot(1, **sections)
        )
        assert report.compared == 2
        assert report.findings == []
        assert report.ok
        assert "0 failure(s)\n  no drift beyond tolerance" in report.render()

    def test_exact_boundary_passes_just_above_fails(self):
        # tolerance is inclusive: |rel change| == TOLERANCE is OK
        assert bench.TOLERANCE == 1e-6
        base = make_snapshot(0, fidelity={"m": 1e6})
        at_boundary = make_snapshot(1, fidelity={"m": 1e6 + 1})
        report = bench.compare_snapshots(base, at_boundary)
        assert report.findings == []
        above = make_snapshot(1, fidelity={"m": 1e6 + 2})
        report = bench.compare_snapshots(base, above)
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
        assert "FAIL" in report.render()

    def test_machine_drift_fails(self):
        base = make_snapshot(0, machine={"sim_busy_cycles{component=sp}": 1000})
        drifted = make_snapshot(1, machine={"sim_busy_cycles{component=sp}": 1001})
        report = bench.compare_snapshots(base, drifted)
        assert [f.metric_class for f in report.failures] == ["machine"]
        assert not report.ok

    def test_uncompared_profile_series_are_ignored(self):
        # A schema-1 baseline's self_profile (host wall-clock) is never
        # compared: neither a slowdown nor a series missing on the
        # current side is a finding.
        base = make_v1_snapshot(
            0, {"wall_seconds": 1.0, "events_per_sec": 1e6},
            fidelity={"speedup": 1.8},
        )
        current = make_snapshot(1, fidelity={"speedup": 1.8})
        report = bench.compare_snapshots(base, current)
        assert report.compared == 1
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

    def test_false_claims_are_failures(self):
        claims = {"table6": {"Table 6: holds": True, "Table 6: broken": False}}
        current = make_snapshot(1, fidelity={"m": 1.0})
        for baseline in (None, make_snapshot(0, fidelity={"m": 1.0})):
            report = bench.compare_snapshots(baseline, current, claims)
            assert report.claims == 2
            assert [f.metric for f in report.failures] == ["Table 6: broken"]
            assert "table6: claim does not hold: Table 6: broken" in report.render()
        assert report.compared == 1
        assert bench.compare_snapshots(None, current, {}).render() == (
            "Claims report: snapshot 1, 0 claim(s) checked: 0 failure(s)\n"
            "  every claim holds"
        )


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
        section, claims = bench.bench_experiment("table6")
        assert section["description"]
        assert section["fidelity"], "experiment must declare headline metrics"
        for metric in section["fidelity"]:
            assert set(metric) >= {"name", "value", "unit", "target"}
        assert section["machine"], "run must drain machine series"
        assert list(section) == ["description", "fidelity", "machine"]
        assert claims and all(claims.values())

    def test_counters_only_run_records_no_timeline(self):
        # machine reads the bus's exact aggregates, never its records
        machine = bench.bench_experiment("table6")[0]["machine"]
        assert machine
        assert not [name for name in machine if name.startswith("sim_trace_")]

    def test_deterministic_fidelity_and_machine(self):
        first, _ = bench.bench_experiment("table6")
        second, _ = bench.bench_experiment("table6")
        assert first["fidelity"] == second["fidelity"]
        assert first["machine"] == second["machine"]

    def test_build_snapshot_document(self):
        seen = []
        snapshot, claims = bench.build_snapshot(["table6"], 7, progress=seen.append)
        assert seen == ["table6"]
        assert snapshot["schema"] == bench.SCHEMA
        assert snapshot["schema_version"] == bench.SCHEMA_VERSION
        assert snapshot["snapshot"] == 7
        assert "traced" not in snapshot
        assert list(snapshot["experiments"]) == ["table6"]
        assert list(claims) == ["table6"]

    def test_parallel_build_snapshot_merges_in_key_order(self):
        seen = []
        keys = ["table6", "table5", "figure3"]  # deliberately unsorted
        parallel = bench.build_snapshot(keys, 3, progress=seen.append, jobs=3)
        assert sorted(seen) == sorted(keys)  # progress is completion-order
        assert list(parallel[0]["experiments"]) == keys  # sections are key-order
        assert list(parallel[1]) == keys
        assert parallel == bench.build_snapshot(keys, 3, jobs=1)

    def test_single_key_ignores_jobs(self):
        snapshot, _ = bench.build_snapshot(["table6"], 0, jobs=8)
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
        assert "0 failure(s)\n  no drift beyond tolerance" in captured.out
        assert (tmp_path / "BENCH_0.json").read_bytes().replace(
            b'"snapshot": 0', b'"snapshot": 1'
        ) == (tmp_path / "BENCH_1.json").read_bytes()

    def test_committed_schema_1_baseline_still_compares(self, tmp_path, capsys):
        # BENCH_3.json predates schema 2: its fidelity and machine
        # sections must match exactly, and only the record gauges it
        # carried disappear.
        assert bench.load_snapshot(str(BENCH_3))["schema_version"] == 1
        out = tmp_path / "current.json"
        assert self.run_bench(
            tmp_path, "--baseline", str(BENCH_3), "--out", str(out)
        ) == 0
        report = capsys.readouterr().out
        assert " 0 failure(s)\n" in report
        findings = [line for line in report.splitlines() if line.startswith("  ")]
        assert [line.split(": metric disappeared")[0] for line in findings] == [
            f"  info  table6/{name}" for name in RECORD_GAUGES
        ]

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

    def test_false_claim_fails_with_and_without_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core.bands import BandCensus
        from repro.experiments import table6

        assert self.run_bench(tmp_path) == 0  # the clean baseline
        capsys.readouterr()
        real = table6.run()
        monkeypatch.setattr(table6, "run", lambda: table6.Table6Result(
            cedar=BandCensus(1, 9, 4), ymp=real.ymp,
            cedar_efficiencies=real.cedar_efficiencies,
        ))
        claim = "table6: claim does not hold: Table 6: Cedar automatable census"
        for extra in ((), ("--baseline", "none")):
            assert self.run_bench(tmp_path, *extra) == 1
            out = capsys.readouterr().out
            assert f"  FAIL  {claim} at P=32 is (1, 9, 3)\n" in out
            assert "Y-MP/8" not in out  # the claim that holds stays quiet

    def test_explicit_out_path(self, tmp_path, capsys):
        out = tmp_path / "custom.json"
        assert self.run_bench(tmp_path, "--out", str(out)) == 0
        assert out.exists()
        loaded = bench.load_snapshot(str(out))
        assert list(loaded["experiments"]) == ["table6"]
