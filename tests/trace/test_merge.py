"""Tests for cross-worker trace merging (repro.trace.merge)."""

import json

from repro.trace import TraceMerger, Tracer, chrome_trace_json


class FakeClock:
    def __init__(self, cycle: int = 0) -> None:
        self.cycle = cycle

    def __call__(self) -> int:
        return self.cycle


def _worker_tracer(base: int, component: str) -> Tracer:
    """One worker's buffer: a span, an instant, a sample, counters."""
    tracer = Tracer()
    tracer.set_clock(FakeClock())
    tracer.complete(component, "work", base, base + 10, tag=base)
    tracer.instant(component, "posted", cycle=base + 1, value=base)
    tracer.sample(component, "occupancy", float(base), cycle=base + 2)
    tracer.count(component, "packets", 3)
    return tracer


class TestMergeSemantics:
    def test_epochs_renumber_cumulatively_in_add_order(self):
        first = Tracer()
        first.set_clock(FakeClock())
        first.complete("m", "run", 0, 10)
        first.set_clock(FakeClock())  # second machine run -> epoch 1
        first.complete("m", "run", 0, 20)
        second = _worker_tracer(0, "m")
        merger = TraceMerger()
        merger.add(first.snapshot())
        merger.add(second.snapshot().to_bytes())  # wire bytes also accepted
        merged = merger.merge()
        assert len(merger) == 2
        # first contributed epochs 0..1, so second's epoch 0 becomes 2.
        assert merged.record_epochs() == [0, 1, 2]
        assert merged.epochs == 3
        assert merged.elapsed_by_epoch == {0: 10, 1: 20, 2: 10}

    def test_aggregates_sum_like_one_shared_tracer(self):
        merger = TraceMerger()
        merger.add(_worker_tracer(0, "m").snapshot())
        merger.add(_worker_tracer(100, "m").snapshot())
        merged = merger.merge()
        assert merged.counter_totals["m"]["packets"] == 6
        assert merged.busy_cycles == {"m": 20}
        assert merged.span_counts == {"m": 2}
        assert merged.num_records == 6
        assert merged.records_seen == 6

    def test_sampled_gauge_keeps_the_last_value_like_one_shared_tracer(self):
        shared = Tracer()
        first, second = Tracer(), Tracer()
        for tracer, value in ((shared, 20.0), (first, 20.0)):
            tracer.sample("fwd", "occupancy_words", value, cycle=1)
            tracer.count("fwd", "packets", 2)
        for tracer, value in ((shared, 10.0), (second, 10.0)):
            tracer.sample("fwd", "occupancy_words", value, cycle=2)
            tracer.count("fwd", "packets", 3)
        merger = TraceMerger()
        merger.add(first.snapshot())
        merger.add(second.snapshot().to_bytes())  # survives the wire too
        merged = merger.merge()
        assert shared.counter_totals() == {
            "fwd": {"occupancy_words": 10.0, "packets": 5}
        }
        assert merged.counter_totals == shared.counter_totals()
        assert merged.sampled_counters == {"fwd": ["occupancy_words"]}

    def test_records_sort_by_epoch_then_time_with_seq_tiebreak(self):
        late = _worker_tracer(100, "b")
        early = _worker_tracer(0, "a")
        merger = TraceMerger()
        merger.add(late.snapshot())
        merger.add(early.snapshot())
        merged = merger.merge()
        # Add order assigns epochs (late=0, early=1); within the merged
        # timeline each epoch's records stay time-ordered.
        assert merged.column("spans", "epoch") == [0, 1]
        assert merged.column("spans", "start") == [100, 0]
        seqs = merged.column("instants", "seq")
        assert seqs == sorted(seqs)

    def test_merged_output_exports_like_any_snapshot(self):
        merger = TraceMerger()
        merger.add(_worker_tracer(0, "a").snapshot())
        merger.add(_worker_tracer(50, "b").snapshot())
        doc = json.loads(chrome_trace_json(merger.merge()))
        names = {e["name"] for e in doc["traceEvents"]}
        assert "work" in names and "posted" in names

    def test_empty_merge_is_a_valid_empty_snapshot(self):
        merged = TraceMerger().merge()
        assert merged.num_records == 0
        assert merged.epochs == 1
        json.loads(chrome_trace_json(merged))  # renders cleanly


class TestMergeDeterminism:
    """One process vs. N workers must produce identical merges."""

    def test_merge_of_wire_bytes_equals_merge_of_snapshots(self):
        def build(via_wire: bool) -> bytes:
            merger = TraceMerger()
            for base, comp in ((0, "a"), (100, "b")):
                snap = _worker_tracer(base, comp).snapshot()
                merger.add(snap.to_bytes() if via_wire else snap)
            return merger.merge().to_bytes()

        assert build(via_wire=True) == build(via_wire=False)

    def test_same_inputs_same_bytes(self):
        def build() -> str:
            merger = TraceMerger()
            merger.add(_worker_tracer(0, "a").snapshot().to_bytes())
            merger.add(_worker_tracer(100, "b").snapshot().to_bytes())
            return chrome_trace_json(merger.merge())

        assert build() == build()
