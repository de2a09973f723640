"""Every machine count perfbench pins, the engine's own counts included.

perfbench's oracle checks a traced cell's counts against
``perfbench/references.json`` but skips ``events_dispatched`` and
``idle_cycles_skipped`` (its ``ENGINE_COUNTS``).  A change that means to
keep every event must keep those two as well, so this test pins every
count for three of the six cells (a Table 2 pair at 32 CEs and a demand
load/store cell), counted by a counters-only tracer under perfbench's
own name map.  CI checks all six cells the same way.
"""

import importlib
import importlib.util
import json
import os

import pytest

from repro.trace import Tracer, tracing

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _layers():
    """perfbench/layers.py, the counter-name map, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(PERFBENCH, "layers.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "experiment, unit",
    [("table2", "VL:32"), ("table2", "TM:32"), ("table1", "GM_NO_PREFETCH:3")],
)
def test_every_pinned_count_matches(experiment, unit):
    with open(os.path.join(PERFBENCH, "references.json")) as stream:
        expected = json.load(stream)["counts"][unit]
    layers = _layers()
    tracer = Tracer(max_records=0)
    with tracing(tracer):
        importlib.import_module(f"repro.experiments.{experiment}").run_unit(unit)
    counts = layers.count_metrics(layers.tracer_counts(tracer))
    assert "hardware.engine.events_dispatched" in expected
    assert "hardware.engine.idle_cycles_skipped" in expected
    assert {name: counts.get(name) for name in expected} == expected
