"""Tests for the columnar record backbone (repro.trace.columnar)."""

import json

import pytest

from repro.errors import TraceError
from repro.trace import (
    ColumnarStore,
    StringTable,
    TraceSnapshot,
    Tracer,
    chrome_trace_json,
    utilization_report,
)
from repro.trace.columnar import INITIAL_CAPACITY, render_value

from reference_store import ObjectStore


class FakeClock:
    def __init__(self, cycle: int = 0) -> None:
        self.cycle = cycle

    def __call__(self) -> int:
        return self.cycle


def _record_mixed(tracer: Tracer, n: int = 10) -> None:
    """A deterministic mix of all three record kinds plus counters."""
    for i in range(n):
        tracer.complete("memory.m00", "read", i * 10, i * 10 + 4, address=i)
        tracer.sample("fwd", "occupancy", float(i), cycle=i * 10 + 1)
        tracer.instant("ce00", "posted", cycle=i * 10 + 2, value=i)
    tracer.count("fwd", "packets", n)


class TestStringTable:
    def test_dense_ids_in_first_use_order(self):
        table = StringTable()
        assert table.intern("memory") == 0
        assert table.intern("fwd") == 1
        assert table.intern("memory") == 0
        assert table.strings == ["memory", "fwd"]
        assert len(table) == 2

    def test_seeded_table_resumes_numbering(self):
        table = StringTable(["a", "b"])
        assert table.intern("b") == 1
        assert table.intern("c") == 2


class TestRenderValue:
    def test_scalars_keep_repr(self):
        assert render_value(5) == "5"
        assert render_value(2.5) == "2.5"
        assert render_value("x") == "'x'"
        assert render_value(None) == "None"
        assert render_value(True) == "True"

    def test_objects_render_without_memory_address(self):
        class Probe:
            pass

        rendered = render_value(Probe())
        assert "0x" not in rendered  # default repr embeds the address
        assert rendered == render_value(Probe())
        assert "Probe" in rendered


class TestRingWraparound:
    def test_oldest_evicted_at_max_records(self):
        store = ColumnarStore(max_records=4)
        for i in range(10):
            store.add_instant("ce00", "tick", 0, i, i)
        assert store.num_records == 4
        assert store.dropped == 6
        assert store.total_appended == 10
        snap = store.snapshot()
        # The retained window is the most recent records, oldest first.
        assert snap.column("instants", "cycle") == [6, 7, 8, 9]
        assert snap.column("instants", "seq") == [6, 7, 8, 9]

    def test_eviction_is_globally_oldest_across_kinds(self):
        store = ColumnarStore(max_records=3)
        store.add_span("m", "read", 0, 0, 4, 0, None)  # seq 0: the oldest
        store.add_instant("c", "posted", 0, 5, 1)  # seq 1
        store.add_sample("f", "occ", 0, 6, 2.0)  # seq 2
        store.add_instant("c", "posted", 0, 7, 3)  # seq 3 -> evicts the span
        counts = store.counts()
        assert counts == {"spans": 0, "instants": 2, "samples": 1}
        assert store.dropped == 1
        store.add_sample("f", "occ", 0, 8, 4.0)  # seq 4 -> evicts instant seq 1
        assert store.counts() == {"spans": 0, "instants": 1, "samples": 2}

    def test_wrapped_snapshot_reads_two_segments_in_order(self):
        store = ColumnarStore(max_records=8)
        for i in range(13):  # wraps the 8-slot ring
            store.add_instant("ce00", "tick", 0, i, i)
        snap = store.snapshot()
        assert snap.column("instants", "cycle") == list(range(5, 13))
        # The object column wraps identically.
        assert snap.column("instants", "value") == list(range(5, 13))

    def test_capacity_doubles_then_caps_at_max_records(self):
        store = ColumnarStore(max_records=INITIAL_CAPACITY * 4)
        bytes_small = store.buffer_bytes
        for i in range(INITIAL_CAPACITY + 1):
            store.add_sample("f", "occ", 0, i, float(i))
        assert store.buffer_bytes > bytes_small  # the sample ring doubled
        assert store.dropped == 0

    def test_tracer_wraparound_keeps_exporters_consistent(self):
        tracer = Tracer(clock=FakeClock(), max_records=8)
        _record_mixed(tracer, n=10)  # 30 records into an 8-slot budget
        assert tracer.num_records == 8
        assert tracer.dropped == 22
        assert tracer.records_seen == 30
        # Aggregates are exact regardless of drops ...
        assert tracer.busy_cycles() == {"memory.m00": 40}
        assert tracer.span_counts() == {"memory.m00": 10}
        # ... and both exporters run cleanly over the wrapped window.
        doc = json.loads(chrome_trace_json(tracer))
        timeline = [e for e in doc["traceEvents"] if e["ph"] in "XCi"]
        assert len(timeline) == 8
        assert doc["otherData"]["dropped_records"] == 22
        assert "Component utilization" in utilization_report(tracer)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(TraceError):
            ColumnarStore(max_records=0)


def _object_tracer(**kwargs) -> Tracer:
    """A tracer recording into the reference object store."""
    tracer = Tracer(clock=FakeClock(), **kwargs)
    tracer._store = ObjectStore(tracer.max_records)
    return tracer


class TestLegacyParity:
    """The reference object store must export byte-identically."""

    def _traced(self, columnar: bool) -> Tracer:
        tracer = Tracer(clock=FakeClock()) if columnar else _object_tracer()
        _record_mixed(tracer)
        tracer.instant("bus", "signal", cycle=99, value="text")
        return tracer

    def test_chrome_json_byte_identical(self):
        legacy = chrome_trace_json(self._traced(columnar=False))
        columnar = chrome_trace_json(self._traced(columnar=True))
        assert legacy == columnar

    def test_utilization_report_identical(self):
        assert utilization_report(self._traced(False)) == utilization_report(
            self._traced(True)
        )

    def test_wire_round_trips_export_identically(self):
        # The string-table *order* may differ (the object store interns at
        # snapshot time, per kind; the columnar store in record order), but
        # everything id-resolved must match through the wire format too.
        legacy = TraceSnapshot.from_bytes(self._traced(False).snapshot().to_bytes())
        columnar = TraceSnapshot.from_bytes(self._traced(True).snapshot().to_bytes())
        assert chrome_trace_json(legacy) == chrome_trace_json(columnar)
        assert legacy.counter_totals == columnar.counter_totals
        assert legacy.records_seen == columnar.records_seen

    def test_drop_accounting_differs_only_in_window(self):
        # Same drop *count*; the object store drops newest, the ring
        # evicts oldest -- both retain max_records.
        legacy = _object_tracer(max_records=5)
        columnar = Tracer(clock=FakeClock(), max_records=5)
        for tracer in (legacy, columnar):
            for i in range(9):
                tracer.instant("c", "tick", cycle=i, value=i)
        assert legacy.dropped == columnar.dropped == 4
        assert legacy.num_records == columnar.num_records == 5
        assert [i.value for i in legacy.instants] == [0, 1, 2, 3, 4]
        assert [i.value for i in columnar.instants] == [4, 5, 6, 7, 8]


class TestWireFormat:
    def _snapshot(self) -> TraceSnapshot:
        tracer = Tracer(clock=FakeClock())
        _record_mixed(tracer)
        return tracer.snapshot()

    def test_round_trip_preserves_records_and_aggregates(self):
        snap = self._snapshot()
        back = TraceSnapshot.from_bytes(snap.to_bytes())
        assert back.counts == snap.counts
        assert back.strings == snap.strings
        for kind, column in (
            ("spans", "start"),
            ("instants", "cycle"),
            ("samples", "value"),
        ):
            assert back.column(kind, column) == snap.column(kind, column)
        assert back.counter_totals == snap.counter_totals
        assert back.busy_cycles == snap.busy_cycles
        assert back.records_seen == snap.records_seen
        assert back.values_rendered is True

    def test_round_trip_is_a_fixed_point(self):
        payload = self._snapshot().to_bytes()
        assert TraceSnapshot.from_bytes(payload).to_bytes() == payload

    def test_export_identical_before_and_after_wire(self):
        snap = self._snapshot()
        direct = chrome_trace_json(snap)
        assert chrome_trace_json(TraceSnapshot.from_bytes(snap.to_bytes())) == direct

    def test_bad_magic_raises(self):
        with pytest.raises(TraceError):
            TraceSnapshot.from_bytes(b"NOTATRACE" + b"\0" * 16)

    def test_corrupt_header_raises(self):
        payload = bytearray(self._snapshot().to_bytes())
        payload[12] ^= 0xFF  # garble the JSON header
        with pytest.raises(TraceError):
            TraceSnapshot.from_bytes(bytes(payload))


class TestZeroCopySnapshot:
    def test_snapshot_views_track_the_live_buffer(self):
        store = ColumnarStore(max_records=64)
        store.add_sample("f", "occ", 0, 1, 1.0)
        snap = store.snapshot()
        segments = snap.float_columns["samples"]["value"]
        assert all(isinstance(seg, memoryview) for seg in segments)

    def test_to_bytes_freezes_a_copy(self):
        store = ColumnarStore(max_records=64)
        store.add_sample("f", "occ", 0, 1, 1.0)
        frozen = store.snapshot().to_bytes()
        store.add_sample("f", "occ", 0, 2, 2.0)
        back = TraceSnapshot.from_bytes(frozen)
        assert back.counts["samples"] == 1
        assert back.column("samples", "value") == [1.0]


class TestOverheadEstimate:
    def test_reports_per_record_cost_and_ratio(self):
        tracer = Tracer(clock=FakeClock())
        _record_mixed(tracer)
        estimate = tracer.overhead_estimate(wall_seconds=1.0)
        assert estimate["records"] == tracer.records_seen
        assert estimate["per_record_ns"] > 0
        assert 0 < estimate["overhead_seconds"] < 1.0
        assert estimate["ratio"] == pytest.approx(
            estimate["overhead_seconds"] / 1.0
        )

    def test_zero_wall_clock_does_not_divide(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("c", "tick", cycle=0)
        estimate = tracer.overhead_estimate(wall_seconds=0.0)
        assert estimate["ratio"] == 0.0
