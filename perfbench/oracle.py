"""The output oracle: every operation's result is checked, and every
mismatch counts as a failed operation.

* Table 1 and Table 2 cells must equal the fidelity values of the
  committed ``BENCH_3.json`` snapshot exactly (``references.json`` holds a
  copy taken at the commit that added this benchmark, so a later snapshot
  cannot silently move the oracle).
* Sweep points must equal their committed ``SweepMetrics``.
* A serve body's ``rendered`` must equal the in-process
  ``experiment.render(experiment.run())``, and a warm or coalesced body
  must equal the cold body of the same request byte for byte.
* The traced run's simulated-state counts must equal the committed counts
  (events and skipped idle cycles excepted: a faster engine may dispatch
  fewer events for the same simulation).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping, Optional

REFERENCES_PATH = os.path.join(os.path.dirname(__file__), "references.json")

#: Counts that a change to the engine alone may legitimately move.
ENGINE_COUNTS = ("hardware.engine.events_dispatched",
                 "hardware.engine.idle_cycles_skipped")


def load_references(path: str = REFERENCES_PATH) -> Dict[str, object]:
    with open(path) as stream:
        return json.load(stream)


def sweep_key(fields: Mapping[str, object]) -> str:
    return f"clusters={fields['clusters']},switch_radix={fields['switch_radix']}"


class Oracle:
    """Checks results against the committed references."""

    def __init__(self, references: Optional[Dict[str, object]] = None) -> None:
        self.refs = references if references is not None else load_references()

    def table2_cell(self, unit: str, cell) -> bool:
        ref = self.refs["table2"][unit]
        return (cell.latency, cell.interarrival) == (
            ref["latency"], ref["interarrival"]
        )

    def table1_cell(self, unit: str, mflops: float) -> bool:
        return mflops == self.refs["table1"][unit]

    def sweep_point(self, point: Mapping[str, object]) -> bool:
        ref = self.refs["sweep"].get(sweep_key(point["spec"]))
        return ref is not None and point.get("metrics") == ref

    def counts(self, unit: str, counts: Mapping[str, float]) -> bool:
        ref = self.refs["counts"].get(unit)
        if ref is None:
            return True  # no committed counts for this operation
        return all(
            counts.get(name) == value
            for name, value in ref.items()
            if name not in ENGINE_COUNTS
        )

    def sim_cycles(self, unit: str) -> int:
        return int(self.refs["counts"][unit]["hardware.engine.sim_cycles"])


def serve_body_ok(
    body: bytes, rendered: str, cold_body: Optional[bytes] = None
) -> bool:
    """A served result document is right when its ``rendered`` text is the
    in-process rendering and, for a warm or coalesced response, when it is
    the cold body byte for byte."""
    if cold_body is not None and body != cold_body:
        return False
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return False
    return isinstance(document, dict) and document.get("rendered") == rendered
