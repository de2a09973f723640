"""Per-rule tests: every fixture pair proven, plus edge-case sources."""

from pathlib import Path

import pytest

from repro.lint import all_rules, analyze_file, analyze_source, self_check

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = [rule.id for rule in all_rules()]


def _run(source, rule_id):
    rule = next(r for r in all_rules() if r.id == rule_id)
    report = analyze_source(
        source, "scratch.py", rules=[rule], respect_scope=False
    )
    return [f for f in report.findings if f.rule == rule_id]


class TestFixturePairs:
    """The CI self-check, expressed as parametrized tier-1 tests."""

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_fire_fixture_fires(self, rule_id):
        rule = next(r for r in all_rules() if r.id == rule_id)
        path = FIXTURES / rule_id / "fire.py"
        assert path.is_file(), f"missing fire fixture for {rule_id}"
        report = analyze_file(str(path), rules=[rule], respect_scope=False)
        assert [f for f in report.findings if f.rule == rule_id], (
            f"{path} does not fire {rule_id}"
        )

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_fixture_stays_clean(self, rule_id):
        rule = next(r for r in all_rules() if r.id == rule_id)
        path = FIXTURES / rule_id / "clean.py"
        assert path.is_file(), f"missing clean fixture for {rule_id}"
        report = analyze_file(str(path), rules=[rule], respect_scope=False)
        hits = [f for f in report.findings if f.rule == rule_id]
        assert not hits, f"{path} fires: " + "; ".join(
            f.render() for f in hits
        )

    def test_self_check_passes(self):
        assert self_check(str(FIXTURES)) == []

    def test_self_check_reports_missing_fixtures(self, tmp_path):
        failures = self_check(str(tmp_path))
        # Two failures (fire + clean) per registered rule.
        assert len(failures) == 2 * len(RULE_IDS)
        assert all("missing fixture" in failure for failure in failures)

    def test_fixtures_contain_no_noqa(self):
        # A noqa inside a fixture would let a broken rule pass self-check.
        for path in sorted(FIXTURES.rglob("*.py")):
            assert "cedar: noqa" not in path.read_text(), path


class TestSetIterEdges:
    def test_sorted_wrapper_is_order_safe(self):
        assert not _run(
            "names = {'b', 'a'}\nrows = [n for n in sorted(names)]\n",
            "det.set-iter",
        )

    def test_bare_comprehension_over_set_fires(self):
        assert _run(
            "names = {'b', 'a'}\nrows = [n for n in names]\n",
            "det.set-iter",
        )

    def test_rebinding_to_sorted_clears_tracking(self):
        source = (
            "names = {'b', 'a'}\n"
            "names = sorted(names)\n"
            "for n in names:\n"
            "    print(n)\n"
        )
        assert not _run(source, "det.set-iter")

    def test_membership_test_is_fine(self):
        assert not _run(
            "names = {'b', 'a'}\nhit = 'a' in names\n", "det.set-iter"
        )

    def test_join_over_set_fires(self):
        assert _run(
            "names = {'b', 'a'}\nlabel = ','.join(names)\n", "det.set-iter"
        )


class TestIdKeyEdges:
    def test_identity_comparison_is_fine(self):
        assert not _run("same = id(a) == id(b)\n", "det.id-key")

    def test_sort_key_lambda_fires(self):
        assert _run(
            "rows = sorted(items, key=lambda i: id(i))\n", "det.id-key"
        )

    def test_fstring_render_fires(self):
        assert _run("label = f'queue@{id(q):x}'\n", "det.id-key")


class TestFsOrderEdges:
    def test_sorted_listdir_is_fine(self):
        assert not _run(
            "import os\nnames = sorted(os.listdir(d))\n", "det.fs-order"
        )

    def test_bare_listdir_fires(self):
        assert _run("import os\nnames = os.listdir(d)\n", "det.fs-order")


class TestWallClockEdges:
    def test_perf_counter_is_telemetry(self):
        assert not _run(
            "import time\nt = time.perf_counter()\n", "det.wall-clock"
        )

    def test_from_import_fires(self):
        assert _run("from time import time\n", "det.wall-clock")


class TestRngEdges:
    def test_seeded_instance_construction_is_fine(self):
        assert not _run(
            "import random\nrng = random.Random(7)\n", "det.rng"
        )

    def test_module_level_call_fires(self):
        assert _run("import random\nx = random.random()\n", "det.rng")


class TestDisciplineEdges:
    def test_snapshot_in_init_is_fine(self):
        source = (
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._t = current_tracer()\n"
        )
        assert not _run(source, "disc.ambient-snapshot")

    def test_read_in_dispatch_method_fires(self):
        source = (
            "class Q:\n"
            "    def push(self, item):\n"
            "        current_tracer().record('push')\n"
        )
        assert _run(source, "disc.ambient-snapshot")

    def test_floor_division_delay_is_fine(self):
        assert not _run(
            "engine.schedule_after(total // n, cb)\n", "disc.unvalidated-delay"
        )

    def test_validated_schedule_is_not_checked(self):
        # schedule() validates its delay itself; only the fast entry
        # point needs static help.
        assert not _run(
            "engine.schedule(total / n, cb)\n", "disc.unvalidated-delay"
        )

    def test_true_division_delay_fires(self):
        assert _run(
            "engine.schedule_after(total / n, cb)\n", "disc.unvalidated-delay"
        )

    def test_blocking_in_nested_sync_def_is_fine(self):
        source = (
            "async def handler(loop, path):\n"
            "    def load():\n"
            "        with open(path) as fh:\n"
            "            return fh.read()\n"
            "    return await loop.run_in_executor(None, load)\n"
        )
        assert not _run(source, "disc.async-blocking")

    def test_blocking_in_async_def_fires(self):
        source = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )
        assert _run(source, "disc.async-blocking")

    def test_dict_merge_order_fires_on_values_update_loop(self):
        source = (
            "merged = {}\n"
            "for shard in outputs.values():\n"
            "    merged.update(shard)\n"
        )
        assert _run(source, "det.dict-merge-order")

    def test_dict_merge_sorted_keys_is_fine(self):
        source = (
            "merged = {}\n"
            "for key in sorted(outputs):\n"
            "    merged.update(outputs[key])\n"
        )
        assert not _run(source, "det.dict-merge-order")


class TestUnusedImportEdges:
    SOURCE = "from typing import List\nimport json\nx: List[int] = []\n"

    def _findings(self, path):
        rule = next(r for r in all_rules() if r.id == "hyg.unused-import")
        report = analyze_source(self.SOURCE, path, rules=[rule])
        return [f.message for f in report.findings]

    def test_any_repro_module_is_in_scope(self):
        assert self._findings("src/repro/cli.py") == [
            "'json' is imported but never used"
        ]

    def test_package_init_reexports_are_exempt(self):
        assert self._findings("src/repro/hardware/__init__.py") == []
