"""Regenerate ``references.json``, the oracle's committed expectations.

    python3 perfbench/make_references.py

* ``table1`` / ``table2``: every cell, copied from the fidelity section of
  ``BENCH_3.json``;
* ``sweep``: the ``SweepMetrics`` of each point of the sweep-shapes grid;
* ``counts``: the tracer counts of each simulator cell the benchmark runs
  (the traced run checks them, events excepted).

Run it only when a change is *meant* to move simulated results, and say
so in that change: the references are what make ``failed`` mean "wrong".
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layers import count_metrics, tracer_counts  # noqa: E402
from oracle import REFERENCES_PATH, sweep_key  # noqa: E402
from workloads import SWEEP_AXES, TABLE1_UNITS, TABLE2_UNITS  # noqa: E402


def bench_cells(snapshot: dict) -> dict:
    from repro.experiments import table1, table2
    from repro.kernels.rank_update import RankUpdateVersion
    from repro.metrics.headline import slugify

    fidelity = {
        key: {metric["name"]: metric["value"]
              for metric in snapshot["experiments"][key]["fidelity"]}
        for key in ("table1", "table2")
    }
    cells2 = {}
    for unit in table2.units():
        kernel, count = unit.split(":")
        suffix = f"{kernel.lower()}_{count}ce"
        cells2[unit] = {
            "latency": fidelity["table2"][f"latency_{suffix}"],
            "interarrival": fidelity["table2"][f"interarrival_{suffix}"],
        }
    cells1 = {}
    for unit in table1.units():
        version, clusters = unit.split(":")
        slug = slugify(RankUpdateVersion[version].value)
        cells1[unit] = fidelity["table1"][f"mflops_{slug}_{clusters}cl"]
    return {"table1": cells1, "table2": cells2}


def main() -> None:
    from repro.builder.sweep import expand_grid, run_sweep
    from repro.experiments import table1, table2
    from repro.trace import Tracer, tracing

    with open(os.path.join(ROOT, "BENCH_3.json")) as stream:
        references = bench_cells(json.load(stream))
    artifact = run_sweep(expand_grid(SWEEP_AXES), jobs=1)
    references["sweep"] = {
        sweep_key(point["spec"]): point["metrics"] for point in artifact["points"]
    }
    counts = {}
    for module, units in ((table2, TABLE2_UNITS), (table1, TABLE1_UNITS)):
        for unit in units:
            tracer = Tracer()
            with tracing(tracer):
                module.run_unit(unit)
            counts[unit] = count_metrics(tracer_counts(tracer))
    references["counts"] = counts
    with open(REFERENCES_PATH, "w") as stream:
        json.dump(references, stream, indent=1, sort_keys=True)
        stream.write("\n")


if __name__ == "__main__":
    main()
