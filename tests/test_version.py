"""Tests for code-version fingerprinting (repro.version)."""

import json
import re

import repro
from repro.metrics import bench
from repro.version import fingerprint_tree, version_fingerprint


class TestVersionFingerprint:
    def test_format_is_version_plus_hex(self):
        fingerprint = version_fingerprint()
        assert re.fullmatch(
            re.escape(repro.__version__) + r"\+[0-9a-f]{16}", fingerprint
        )

    def test_stable_across_calls(self):
        assert version_fingerprint() == version_fingerprint()
        assert version_fingerprint(refresh=True) == version_fingerprint()


class TestFingerprintTree:
    def test_content_change_changes_digest(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = fingerprint_tree(str(tmp_path))
        (tmp_path / "a.py").write_text("x = 2\n")
        assert fingerprint_tree(str(tmp_path)) != before

    def test_new_file_changes_digest(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = fingerprint_tree(str(tmp_path))
        (tmp_path / "b.py").write_text("")
        assert fingerprint_tree(str(tmp_path)) != before

    def test_rename_changes_digest(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = fingerprint_tree(str(tmp_path))
        (tmp_path / "a.py").rename(tmp_path / "z.py")
        assert fingerprint_tree(str(tmp_path)) != before

    def test_non_python_files_ignored(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = fingerprint_tree(str(tmp_path))
        (tmp_path / "notes.txt").write_text("irrelevant")
        assert fingerprint_tree(str(tmp_path)) == before

    def test_version_string_mixes_in(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        assert fingerprint_tree(str(tmp_path), "1.0") != fingerprint_tree(
            str(tmp_path), "2.0"
        )


class TestEmbedding:
    def test_run_json_records_carry_code_version(self, capsys):
        from repro.cli import main

        assert main(["run", "table6", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["code_version"] == version_fingerprint()

    def test_bench_snapshot_carries_code_version(self):
        snapshot, _ = bench.build_snapshot(["table6"], 0)
        assert snapshot["code_version"] == version_fingerprint()
