"""Sweep artifacts: grid expansion, determinism, Pareto, failure capture."""

import gc
import json
import multiprocessing

import pytest

from repro.builder import expand_grid, pareto_front, render_report, run_sweep
from repro.builder.sweep import SWEEP_SCHEMA, canonical_json, run_point
from repro.cli import main
from repro.hardware.crossbar import CrossbarSwitch

#: A 2x2x2 grid of tiny (fast-to-simulate) machines: 8 valid points.
GRID_AXES = {
    "clusters": [1, 2],
    "ces_per_cluster": [2, 4],
    "memory_modules": [4, 8],
}

#: Probe length for tests: short but past the pipeline fill.
BLOCKS = 2


class TestGridExpansion:
    def test_cartesian_product_in_declared_order(self):
        grid = expand_grid({"clusters": [1, 2], "memory_modules": [4, 8]})
        assert grid == [
            {"clusters": 1, "memory_modules": 4},
            {"clusters": 1, "memory_modules": 8},
            {"clusters": 2, "memory_modules": 4},
            {"clusters": 2, "memory_modules": 8},
        ]

    def test_empty_axes_expand_to_nothing(self):
        assert expand_grid({}) == []


class TestRunPoint:
    def test_valid_point_normalizes_the_spec(self):
        record = run_point({"memory_modules": 4, "clusters": 1}, blocks=BLOCKS)
        assert "error" not in record
        assert record["spec"]["memory_modules"] == 4
        assert record["spec"]["ces_per_cluster"] == 8  # default made explicit
        metrics = record["metrics"]
        assert metrics["mflops"] > 0
        assert metrics["speedup"] > 0
        assert metrics["cycles"] > 0
        assert metrics["events_dispatched"] > 0
        assert metrics["network_conflicts"] >= 0

    def test_invalid_point_becomes_a_structured_error(self):
        record = run_point({"memory_modules": 33}, blocks=BLOCKS)
        assert record["error"]["field"] == "memory_modules"
        assert "power of two" in record["error"]["message"]
        assert "metrics" not in record

    def test_unknown_field_is_captured_not_raised(self):
        record = run_point({"num_modules": 8}, blocks=BLOCKS)
        assert record["error"]["field"] == "num_modules"

    def test_point_frees_its_machines(self):
        """A point's machines are cyclic garbage once it returns; the point
        collects them, so no switch of theirs outlives it."""

        def switches():
            return sum(
                isinstance(obj, CrossbarSwitch) for obj in gc.get_objects()
            )

        gc.collect()
        before = switches()
        record = run_point({"memory_modules": 4, "clusters": 1}, blocks=BLOCKS)
        assert "metrics" in record
        assert switches() == before


class TestSweepArtifact:
    @pytest.fixture(scope="class")
    def artifact(self):
        grid = expand_grid(GRID_AXES)
        assert len(grid) == 8
        grid.append({"interleave_words": 3})  # the deliberate bad point
        return run_sweep(grid, jobs=1, blocks=BLOCKS)

    def test_schema_and_shape(self, artifact):
        assert artifact["schema"] == SWEEP_SCHEMA
        assert artifact["workload"]["kernel"] == "stream"
        assert artifact["workload"]["blocks"] == BLOCKS
        assert len(artifact["points"]) == 9

    def test_points_keep_candidate_order(self, artifact):
        clusters = [
            point["spec"].get("clusters")
            for point in artifact["points"][:8]
        ]
        assert clusters == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_failure_is_surfaced_without_killing_the_sweep(self, artifact):
        failed = artifact["points"][8]
        assert failed["error"]["field"] == "interleave_words"
        succeeded = [p for p in artifact["points"] if "metrics" in p]
        assert len(succeeded) == 8

    def test_pareto_front_is_nonempty_and_excludes_failures(self, artifact):
        front = artifact["pareto"]
        assert front
        assert front == sorted(front)
        for index in front:
            assert "metrics" in artifact["points"][index]
        assert 8 not in front

    def test_pareto_members_are_mutually_nondominated(self, artifact):
        from repro.builder.sweep import _dominates

        members = [artifact["points"][i]["metrics"] for i in artifact["pareto"]]
        for a in members:
            for b in members:
                assert not _dominates(a, b) or a is b

    def test_jobs_fanout_is_byte_identical(self, artifact):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes fork")
        grid = expand_grid(GRID_AXES)
        grid.append({"interleave_words": 3})
        fanned = run_sweep(grid, jobs=2, blocks=BLOCKS)
        assert canonical_json(fanned) == canonical_json(artifact)

    def test_report_renders_every_point(self, artifact):
        report = render_report(artifact)
        assert "pareto front:" in report
        assert "INVALID (interleave_words)" in report
        # One row per successful point plus header/failures/footer.
        assert len(report.splitlines()) == 1 + 8 + 1 + 1


class TestParetoFront:
    def test_dominated_points_are_excluded(self):
        def point(mflops, speedup, conflicts):
            return {
                "spec": {},
                "metrics": {
                    "mflops": mflops,
                    "speedup": speedup,
                    "network_conflicts": conflicts,
                },
            }

        points = [
            point(10.0, 2.0, 100),  # dominated by 1 on every objective
            point(20.0, 3.0, 50),
            point(5.0, 1.0, 0),  # fewest conflicts: on the front
            {"spec": {}, "error": {"field": None, "message": "bad"}},
            point(20.0, 3.0, 50),  # tie with 1: both survive
        ]
        assert pareto_front(points) == [1, 2, 4]

    def test_empty_and_all_failed(self):
        assert pareto_front([]) == []
        assert pareto_front([{"spec": {}, "error": {}}]) == []


class TestSweepCli:
    def test_axis_grid_to_artifact_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        status = main(
            [
                "sweep",
                "--axis", "memory_modules=4,8",
                "--axis", "ces_per_cluster=2",
                "--axis", "clusters=1",
                "--blocks", str(BLOCKS),
                "--out", str(out),
            ]
        )
        assert status == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == SWEEP_SCHEMA
        assert len(artifact["points"]) == 2
        assert capsys.readouterr().out == ""  # artifact went to the file

    def test_points_file_and_report(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text(json.dumps([
            {"clusters": 1, "ces_per_cluster": 2, "memory_modules": 4},
            {"memory_modules": 7},
        ]))
        status = main(
            ["sweep", "--points", str(points), "--blocks", str(BLOCKS),
             "--report"]
        )
        assert status == 0
        report = capsys.readouterr().out
        assert "INVALID (memory_modules)" in report
        assert "pareto front: 1 of 2 points" in report

    def test_nothing_to_sweep_is_an_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_malformed_axis_is_an_error(self, capsys):
        assert main(["sweep", "--axis", "clusters"]) == 2
        assert "--axis wants" in capsys.readouterr().err
