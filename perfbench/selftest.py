"""Self-tests of the benchmark's own logic (no simulator runs).

    python3 perfbench/selftest.py

Named so the repository's test collection does not pick it up: these test
the yardstick, not the system.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import MIN_SAMPLES_BEYOND, percentile, reported_percentile  # noqa: E402
from layers import attribute, layer_metrics, module_layer  # noqa: E402
from oracle import Oracle, serve_body_ok  # noqa: E402
from workloads import SERVE_EXPERIMENTS, WARM_PER_PASS, ServeMix  # noqa: E402


class MixTest(unittest.TestCase):
    def passes(self, seed, count=3):
        mix = ServeMix(seed)
        return [mix.next_pass() for _ in range(count)]

    def test_same_seed_same_requests(self):
        self.assertEqual(self.passes(7), self.passes(7))

    def test_other_seed_other_requests(self):
        self.assertNotEqual(self.passes(7), self.passes(8))

    def test_every_pass_has_the_same_shape(self):
        for requests in self.passes(3, count=10):
            self.assertEqual(sorted(e for e, _ in requests["cold"]),
                             sorted(SERVE_EXPERIMENTS))
            self.assertEqual(len(requests["pairs"]), len(SERVE_EXPERIMENTS))
            self.assertEqual(len(requests["warm"]), WARM_PER_PASS)

    def test_cold_configs_are_never_repeated(self):
        mix = ServeMix(5)
        seen = set()
        while True:
            requests = mix.next_pass()
            if requests is None:
                break
            for experiment, config in requests["cold"] + requests["pairs"]:
                key = experiment + json.dumps(config, sort_keys=True)
                self.assertNotIn(key, seen)
                seen.add(key)
        self.assertGreaterEqual(len(seen), 12 * 90)

    def test_warm_requests_only_ask_for_computed_results(self):
        mix = ServeMix(11)
        for _ in range(4):
            requests = mix.next_pass()
            for item in requests["warm"]:
                self.assertIn(item, mix.computed)


class PercentileRuleTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        self.assertIsNone(percentile(list(range(19)), 0.5))
        self.assertIsNone(percentile(list(range(999)), 0.99))
        self.assertIsNone(percentile(list(range(99)), 0.9))

    def test_reports_with_ten_beyond(self):
        self.assertEqual(percentile(list(range(1, 21)), 0.5), 10)
        self.assertEqual(percentile(list(range(1, 1001)), 0.99), 990)
        self.assertEqual(MIN_SAMPLES_BEYOND, 10)

    def test_reported_percentile_needs_repeating_halves(self):
        steady = [1.0] * 40
        self.assertEqual(reported_percentile(steady, 0.5),
                         {"value": 1.0, "samples": 40})
        # The odd half is three times slower: the median does not repeat.
        skewed = [1.0, 3.0] * 20
        self.assertIsNone(reported_percentile(skewed, 0.5)["value"])
        self.assertIsNone(reported_percentile([1.0] * 15, 0.5)["value"])


class AttributionTest(unittest.TestCase):
    ROOT = os.sep.join(("", "checkout", "src", "repro"))

    def func(self, relative, name):
        return (os.path.join(self.ROOT, relative), 1, name)

    def test_module_layer(self):
        self.assertEqual(module_layer(os.path.join(self.ROOT, "hardware", "crossbar.py"),
                                      self.ROOT), "hardware.crossbar")
        self.assertEqual(module_layer(os.path.join(self.ROOT, "model", "__init__.py"),
                                      self.ROOT), "model")
        self.assertIsNone(module_layer("/usr/lib/python3/heapq.py", self.ROOT))
        self.assertIsNone(module_layer("~", self.ROOT))

    def test_synthetic_profile(self):
        root = ("bench.py", 1, "main")
        engine = self.func("hardware/engine.py", "run")
        crossbar = self.func("hardware/crossbar.py", "arbitrate")
        model = self.func("model/costs.py", "cost")
        heappush = ("~", 0, "<built-in method _heapq.heappush>")
        helper = ("/usr/lib/python3/copy.py", 10, "copy")
        generated = ("<string>", 2, "__init__")
        stats = {
            # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
            root: (1, 1, 0.5, 10.0, {}),
            engine: (1, 1, 2.0, 9.0, {root: (1, 1, 2.0, 9.0)}),
            crossbar: (5, 5, 3.0, 4.0, {engine: (5, 5, 3.0, 4.0)}),
            model: (1, 1, 1.0, 1.0, {root: (1, 1, 1.0, 1.0)}),
            # The builtin splits 3:1 between engine and crossbar by edge time.
            heappush: (8, 8, 2.0, 2.0, {engine: (6, 6, 1.5, 1.5),
                                        crossbar: (2, 2, 0.5, 0.5)}),
            # Stdlib called by a builtin called by the model: goes to model.
            helper: (1, 1, 0.4, 0.4, {generated: (1, 1, 0.4, 0.4)}),
            generated: (1, 1, 0.6, 1.0, {model: (1, 1, 0.6, 1.0)}),
        }
        totals = attribute(stats, lambda name: module_layer(name, self.ROOT))
        self.assertAlmostEqual(totals["hardware.engine"], 2.0 + 1.5)
        self.assertAlmostEqual(totals["hardware.crossbar"], 3.0 + 0.5)
        self.assertAlmostEqual(totals["model.costs"], 1.0 + 0.6 + 0.4)
        self.assertAlmostEqual(totals[None], 0.5)
        metrics = layer_metrics(totals)
        self.assertAlmostEqual(metrics["model.self_s"], 2.0)
        self.assertAlmostEqual(metrics["layers.unattributed_share"], 0.5 / 9.5)
        self.assertEqual(metrics["hardware.cache.self_s"], 0.0)


class OracleTest(unittest.TestCase):
    def test_flags_a_corrupted_body(self):
        rendered = "Table 6\n| a | b |\n"
        cold = json.dumps({"rendered": rendered, "result": [1, 2]}).encode()
        self.assertTrue(serve_body_ok(cold, rendered))
        self.assertTrue(serve_body_ok(cold, rendered, cold_body=cold))
        flipped = cold.replace(b"[1, 2]", b"[1, 3]")
        self.assertFalse(serve_body_ok(flipped, rendered, cold_body=cold))
        self.assertFalse(serve_body_ok(cold[:-1], rendered))
        wrong = json.dumps({"rendered": rendered + " ", "result": [1, 2]}).encode()
        self.assertFalse(serve_body_ok(wrong, rendered))

    def test_flags_a_drifted_cell(self):
        oracle = Oracle()

        class Cell:
            def __init__(self, latency, interarrival):
                self.latency, self.interarrival = latency, interarrival

        ref = oracle.refs["table2"]["TM:32"]
        self.assertTrue(oracle.table2_cell("TM:32", Cell(**ref)))
        self.assertFalse(oracle.table2_cell(
            "TM:32", Cell(ref["latency"] + 1e-9, ref["interarrival"])))
        mflops = oracle.refs["table1"]["GM_NO_PREFETCH:4"]
        self.assertFalse(oracle.table1_cell("GM_NO_PREFETCH:4", mflops * 1.001))

    def test_flags_drifted_counts_but_not_events(self):
        oracle = Oracle()
        counts = dict(oracle.refs["counts"]["CG:16"])
        counts["hardware.engine.events_dispatched"] -= 1000
        self.assertTrue(oracle.counts("CG:16", counts))
        counts["hardware.memory.requests_served"] += 1
        self.assertFalse(oracle.counts("CG:16", counts))


if __name__ == "__main__":
    unittest.main()
