"""Merging per-worker columnar trace buffers into one timeline.

``--jobs N`` runs (and, eventually, partitioned parallel simulation per
ROADMAP item 2) trace each experiment in its own worker process, so a run
produces N independent columnar buffers.  :class:`TraceMerger` splices
them into one coherent :class:`~repro.trace.columnar.TraceSnapshot`:

* **epochs are renumbered cumulatively** in the order snapshots are added
  (worker A's epochs 0..a, then worker B's as a+1..), so every machine run
  keeps its own Chrome-trace "process";
* **string ids are remapped** into one union interning table;
* **records are stably time-sorted** per kind by ``(epoch, cycle, seq)``,
  with the store-wide sequence number as the deterministic tiebreak;
* **aggregates are summed** (busy cycles, span counts, counter totals) or
  offset (elapsed-by-epoch), exactly as one shared tracer would have
  accumulated them; a *sampled* counter (a gauge, which a tracer sets
  rather than adds to) takes its value from the last snapshot, in add
  order, that carries it.

Because the merge is a pure function of the added snapshots *in add
order*, feeding it the per-experiment buffers in experiment-key order
yields byte-identical exports whether those buffers came from one process
or from ``--jobs N`` workers -- the determinism contract CI's
merge-determinism smoke step pins down.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Set, Union

from repro.trace.columnar import (
    INSTANT_INT_COLUMNS,
    SAMPLE_INT_COLUMNS,
    SPAN_INT_COLUMNS,
    StringTable,
    TraceSnapshot,
    render_value,
)

#: Per kind: (int column names, time column used as the sort key).
_KIND_LAYOUT = {
    "spans": (SPAN_INT_COLUMNS, "start"),
    "instants": (INSTANT_INT_COLUMNS, "cycle"),
    "samples": (SAMPLE_INT_COLUMNS, "cycle"),
}


def _merge_sum(target: Dict[str, float], source: Dict[str, float]) -> None:
    for key, value in source.items():
        target[key] = target.get(key, 0) + value


class TraceMerger:
    """Accumulates per-worker snapshots; :meth:`merge` yields one timeline."""

    def __init__(self) -> None:
        self._snapshots: List[TraceSnapshot] = []

    def add(self, snapshot: Union[TraceSnapshot, bytes]) -> None:
        """Add one worker's buffer (a snapshot or its wire bytes).

        Add order is semantic: it assigns the epoch renumbering, so
        callers must add in a deterministic order (the CLI uses
        experiment-key order) for reproducible merges.
        """
        if isinstance(snapshot, (bytes, bytearray, memoryview)):
            snapshot = TraceSnapshot.from_bytes(bytes(snapshot))
        self._snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self._snapshots)

    def merge(self) -> TraceSnapshot:
        """One snapshot spanning every added buffer (see module docstring)."""
        merged = TraceSnapshot()
        strings = StringTable()
        merged.values_rendered = True

        rows: Dict[str, List[tuple]] = {kind: [] for kind in _KIND_LAYOUT}
        objs: Dict[str, List[object]] = {kind: [] for kind in _KIND_LAYOUT}
        sampled: Dict[str, Set[str]] = {}
        epoch_offset = 0
        seq_offset = 0
        for snap in self._snapshots:
            id_map = [strings.intern(s) for s in snap.strings]
            for kind, (int_names, _) in _KIND_LAYOUT.items():
                columns = [snap.column(kind, name) for name in int_names]
                if kind == "spans":
                    obj_column = snap.column(kind, "args")
                elif kind == "instants":
                    obj_column = [
                        value if snap.values_rendered else render_value(value)
                        for value in snap.column(kind, "value")
                    ]
                else:
                    obj_column = snap.column(kind, "value")
                seq_at = int_names.index("seq")
                comp_at = int_names.index("component")
                name_at = int_names.index("name")
                epoch_at = int_names.index("epoch")
                for row in zip(*columns, obj_column):
                    row = list(row)
                    row[seq_at] += seq_offset
                    row[comp_at] = id_map[row[comp_at]]
                    row[name_at] = id_map[row[name_at]]
                    row[epoch_at] += epoch_offset
                    objs[kind].append(row.pop())
                    rows[kind].append(tuple(row))
            _merge_sum(merged.busy_cycles, snap.busy_cycles)
            _merge_sum(merged.span_counts, snap.span_counts)
            for component, totals in snap.counter_totals.items():
                target = merged.counter_totals.setdefault(component, {})
                gauges = snap.sampled_counters.get(component, ())
                for name, value in totals.items():
                    if name in gauges:
                        target[name] = value
                    else:
                        target[name] = target.get(name, 0) + value
            for component in sorted(snap.sampled_counters):
                sampled.setdefault(component, set()).update(
                    snap.sampled_counters[component]
                )
            for epoch, cycles in snap.elapsed_by_epoch.items():
                merged.elapsed_by_epoch[epoch + epoch_offset] = cycles
            merged.dropped += snap.dropped
            merged.records_seen += snap.records_seen
            merged.buffer_bytes += snap.buffer_bytes
            epoch_offset += snap.epochs
            seq_offset += max(snap.records_seen, 1)
        merged.epochs = epoch_offset or 1
        merged.sampled_counters = {
            component: sorted(sampled[component]) for component in sorted(sampled)
        }

        for kind, (int_names, time_name) in _KIND_LAYOUT.items():
            seq_at = int_names.index("seq")
            epoch_at = int_names.index("epoch")
            time_at = int_names.index(time_name)
            order = sorted(
                range(len(rows[kind])),
                key=lambda i: (
                    rows[kind][i][epoch_at],
                    rows[kind][i][time_at],
                    rows[kind][i][seq_at],
                ),
            )
            kind_rows = rows[kind]
            kind_objs = objs[kind]
            for index, name in enumerate(int_names):
                column = array("q", (kind_rows[i][index] for i in order))
                merged.int_columns[kind][name] = (memoryview(column),)
            if kind == "samples":
                merged.float_columns[kind]["value"] = (
                    memoryview(array("d", (kind_objs[i] for i in order))),
                )
            else:
                obj_name = "args" if kind == "spans" else "value"
                merged.obj_columns[kind][obj_name] = (
                    [kind_objs[i] for i in order],
                )
            merged.counts[kind] = len(kind_rows)

        merged.strings = strings.strings
        return merged
