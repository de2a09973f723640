"""Tests for the cedar-repro command-line interface."""

import json

from repro.cli import main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("table1", "table2", "table6", "restructuring"):
            assert key in out


class TestUnknownExperiment:
    def test_near_miss_suggestion(self, capsys):
        assert main(["run", "tabel2"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'tabel2'" in err
        assert "did you mean" in err
        assert "table2" in err

    def test_no_match_points_at_list(self, capsys):
        assert main(["run", "zzzzzz"]) == 2
        err = capsys.readouterr().err
        assert "try 'cedar-repro list'" in err

    def test_trace_rejects_unknown_too(self, capsys):
        assert main(["trace", "restructering"]) == 2
        assert "restructuring" in capsys.readouterr().err


class TestRunJson:
    def test_json_output_is_machine_readable(self, capsys):
        assert main(["run", "table6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        entry = payload[0]
        assert entry["experiment"] == "table6"
        assert entry["description"]
        assert "Ep" in entry["rendered"] or "band" in entry["rendered"].lower()
        # The structured result must survive a JSON round trip untouched.
        assert json.loads(json.dumps(entry["result"])) == entry["result"]

    def test_plain_run_still_renders(self, capsys):
        assert main(["run", "table6"]) == 0
        assert "High" in capsys.readouterr().out


class TestTrace:
    def test_trace_report_on_analytic_experiment(self, capsys):
        assert main(["trace", "table6", "--report"]) == 0
        out = capsys.readouterr().out
        assert "Trace report:" in out
        assert "model.constructs_timed" in out

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "table6", "--out", str(out_file)]) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.err
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # --out without --report skips the text report.
        assert "Trace report:" not in captured.out


class TestRunOut:
    def test_out_writes_single_json_document(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        assert main(["run", "table6", "--out", str(out_file)]) == 0
        captured = capsys.readouterr()
        assert "running table6" in captured.err
        assert "wrote 1 result(s)" in captured.err
        assert captured.out == ""  # results go to the file, not stdout
        payload = json.loads(out_file.read_text())
        assert isinstance(payload, list)
        assert payload[0]["experiment"] == "table6"

    def test_unwritable_out_fails_before_running(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "results.json"
        assert main(["run", "table6", "--out", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert "running" not in captured.err  # failed before any run


class TestRunProfile:
    def test_profile_prints_hottest_functions(self, capsys):
        assert main(["run", "table6", "--profile", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "hottest functions (table6)" in out
        assert "tottime" in out
        # at most --top rows below the header of the profile table
        table = out.split("tottime", 1)[1].splitlines()[1:]
        assert 0 < len([line for line in table if line.strip()]) <= 5

    def test_profile_wired_into_json(self, capsys):
        assert main(["run", "table6", "--profile", "--top", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        profile = payload[0]["profile"]
        assert 0 < len(profile) <= 3
        for row in profile:
            assert set(row) == {"function", "ncalls", "tottime", "cumtime"}
            assert row["tottime"] >= 0

    def test_profile_aggregates_across_jobs(self, monkeypatch, capsys):
        # Each worker profiles its own experiment; the parent merges the
        # raw stats dicts, so every record still carries a profile.
        import repro.cli as cli

        subset = {k: cli.EXPERIMENTS[k] for k in ("table6", "table5")}
        monkeypatch.setattr(cli, "EXPERIMENTS", subset)
        assert cli.main(
            ["run", "all", "--profile", "--jobs", "2", "--json"]
        ) == 0
        captured = capsys.readouterr()
        assert "--profile forces" not in captured.err
        payload = json.loads(captured.out)
        assert [e["experiment"] for e in payload] == ["table5", "table6"]
        for entry in payload:
            assert entry["profile"]
            for row in entry["profile"]:
                assert set(row) == {"function", "ncalls", "tottime", "cumtime"}


class TestRunJobs:
    def test_parallel_json_matches_sequential(self, monkeypatch, capsys):
        # Narrow "all" to two cheap experiments, then compare --jobs 2
        # against the sequential run: identical order, identical payload.
        import repro.cli as cli

        subset = {k: cli.EXPERIMENTS[k] for k in ("table6", "table5")}
        monkeypatch.setattr(cli, "EXPERIMENTS", subset)
        assert cli.main(["run", "all", "--jobs", "2", "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert cli.main(["run", "all", "--json"]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert [e["experiment"] for e in parallel] == ["table5", "table6"]
        assert parallel == sequential

    def test_single_experiment_ignores_jobs(self, capsys):
        assert main(["run", "table6", "--jobs", "4"]) == 0
        assert "High" in capsys.readouterr().out


class TestRunMultiple:
    def test_several_experiments_in_given_order(self, capsys):
        assert main(["run", "table6", "table5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["experiment"] for e in payload] == ["table6", "table5"]

    def test_duplicates_are_collapsed(self, capsys):
        assert main(["run", "table6", "table6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["experiment"] for e in payload] == ["table6"]

    def test_unknown_key_in_list_rejected(self, capsys):
        assert main(["run", "table6", "tabel5"]) == 2
        assert "unknown experiment 'tabel5'" in capsys.readouterr().err


class TestRunTraceOut:
    def test_writes_merged_chrome_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(
            ["run", "table6", "table5", "--trace-out", str(out_file)]
        ) == 0
        captured = capsys.readouterr()
        assert "wrote merged trace" in captured.err
        assert "2 experiment(s)" in captured.err
        doc = json.loads(out_file.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # Each experiment keeps its own epoch (Chrome-trace pid).
        assert len({e["pid"] for e in doc["traceEvents"]}) >= 2

    def test_json_records_gain_trace_telemetry(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        assert main(
            ["run", "table6", "--json", "--trace-out", str(out_file)]
        ) == 0
        entry = json.loads(capsys.readouterr().out)[0]
        trace = entry["trace"]
        assert trace["records_seen"] > 0
        assert trace["dropped"] == 0
        assert not [key for key in trace if key.startswith("overhead_")]

    def test_jobs_n_merged_trace_is_byte_identical(
        self, monkeypatch, tmp_path
    ):
        """The merge-determinism acceptance: --jobs 2 == --jobs 1, exactly."""
        import repro.cli as cli

        subset = {k: cli.EXPERIMENTS[k] for k in ("table6", "table5")}
        monkeypatch.setattr(cli, "EXPERIMENTS", subset)
        sequential = tmp_path / "seq.json"
        parallel = tmp_path / "par.json"
        assert cli.main(["run", "all", "--trace-out", str(sequential)]) == 0
        assert cli.main(
            ["run", "all", "--jobs", "2", "--trace-out", str(parallel)]
        ) == 0
        assert sequential.read_bytes() == parallel.read_bytes()

    def test_unwritable_trace_out_fails_before_running(self, tmp_path, capsys):
        bad = tmp_path / "missing-dir" / "trace.json"
        assert main(["run", "table6", "--trace-out", str(bad)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_rendered_output_unchanged_by_tracing(self, capsys, tmp_path):
        assert main(["run", "table6", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)[0]
        assert main(
            ["run", "table6", "--json",
             "--trace-out", str(tmp_path / "t.json")]
        ) == 0
        traced = json.loads(capsys.readouterr().out)[0]
        assert traced["rendered"] == plain["rendered"]
        assert traced["result"] == plain["result"]


class TestRunPartitions:
    def test_partitions_must_be_positive(self, capsys):
        assert main(["run", "table6", "--partitions", "0"]) == 2
        assert "--partitions must be >= 1" in capsys.readouterr().err

    def test_partitions_and_jobs_are_exclusive(self, capsys):
        assert main(
            ["run", "table6", "--partitions", "2", "--jobs", "2"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_whole_unit_experiment_matches_plain_run(self, capsys):
        # table6 declares no unit decomposition: it runs whole in
        # partition 0 and the extra partition stays idle.
        assert main(["run", "table6", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)[0]
        assert main(["run", "table6", "--partitions", "2", "--json"]) == 0
        captured = capsys.readouterr()
        entry = json.loads(captured.out)[0]
        assert entry["rendered"] == plain["rendered"]
        assert entry["result"] == plain["result"]
        telemetry = entry["partition"]
        assert telemetry["partitions"] == 2
        assert telemetry["units"] == 1
        assert [s["units"] for s in telemetry["partition_stats"]] == [1, 0]
        assert "partition(s)" in captured.err  # stderr throughput lines

    def test_partitioned_sanitizer_summary_matches(self, capsys):
        assert main(["run", "table6", "--sanitize", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)[0]
        assert main(
            ["run", "table6", "--partitions", "2", "--sanitize", "--json"]
        ) == 0
        entry = json.loads(capsys.readouterr().out)[0]
        assert entry["sanitizer"] == plain["sanitizer"]

    def test_partitioned_trace_is_byte_identical(self, tmp_path, capsys):
        single = tmp_path / "p1.json"
        double = tmp_path / "p2.json"
        assert main(
            ["run", "table6", "--partitions", "1", "--trace-out", str(single)]
        ) == 0
        assert main(
            ["run", "table6", "--partitions", "2", "--trace-out", str(double)]
        ) == 0
        capsys.readouterr()
        assert single.read_bytes() == double.read_bytes()


class TestRunSanitize:
    def test_plain_run_prints_sanitizer_line(self, capsys):
        assert main(["run", "table6", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "0 violation(s)" in out

    def test_json_record_carries_sanitizer_summary(self, capsys):
        assert main(["run", "network-ablation", "--sanitize", "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)[0]
        summary = entry["sanitizer"]
        assert summary["enabled"] is True
        assert summary["violations"] == 0
        assert summary["total_checks"] == sum(summary["checks"].values())
        assert summary["total_checks"] > 0  # a cycle simulation saw traffic

    def test_rendered_artifact_identical_with_and_without(self, capsys):
        assert main(["run", "table6", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)[0]
        assert main(["run", "table6", "--sanitize", "--json"]) == 0
        sanitized = json.loads(capsys.readouterr().out)[0]
        assert sanitized["rendered"] == plain["rendered"]
        assert sanitized["result"] == plain["result"]

    def test_env_flag_implies_sanitize(self, monkeypatch, capsys):
        monkeypatch.setenv("CEDAR_SANITIZE", "1")
        from repro.hardware import sanitize as sanitize_mod

        monkeypatch.setattr(sanitize_mod, "_enabled", True)
        assert main(["run", "table6"]) == 0
        assert "sanitizer:" in capsys.readouterr().out

    def test_parallel_sanitized_matches_sequential(self, monkeypatch, capsys):
        import repro.cli as cli

        subset = {k: cli.EXPERIMENTS[k] for k in ("table6", "table5")}
        monkeypatch.setattr(cli, "EXPERIMENTS", subset)
        assert cli.main(
            ["run", "all", "--sanitize", "--jobs", "2", "--json"]
        ) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert cli.main(["run", "all", "--sanitize", "--json"]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert all("sanitizer" in entry for entry in parallel)
        assert parallel == sequential
