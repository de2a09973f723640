"""Tests for the machine-wide instrumentation bus (repro.trace)."""

import json

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import TraceError
from repro.trace import (
    TraceSnapshot,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    current_tracer,
    tracing,
    utilization_report,
)


class FakeClock:
    def __init__(self, cycle: int = 0) -> None:
        self.cycle = cycle

    def __call__(self) -> int:
        return self.cycle


class TestDisabledFastPath:
    def test_recording_is_a_no_op(self):
        tracer = Tracer(enabled=False, clock=FakeClock())
        tracer.count("memory", "requests")
        tracer.sample("fwd", "occupancy", 12.0, cycle=5)
        tracer.begin("machine", "run")
        tracer.end("machine")
        tracer.complete("memory", "read", 0, 4)
        tracer.instant("ce00", "posted")
        assert tracer.num_records == 0
        assert tracer.counter_totals() == {}
        assert tracer.busy_cycles() == {}

    def test_if_enabled_is_none(self):
        assert Tracer(enabled=False).if_enabled() is None
        tracer = Tracer(enabled=True)
        assert tracer.if_enabled() is tracer

    def test_bus_still_delivers_when_disabled(self):
        """Table 2 correctness must not depend on timeline recording."""
        tracer = Tracer(enabled=False)
        seen = []
        tracer.subscribe("prefetch.first_word_latency", seen.append)
        tracer.publish("prefetch.first_word_latency", 93)
        assert seen == [93]
        assert tracer.num_records == 0

    def test_end_without_begin_is_silent_when_disabled(self):
        # The stack never opened, so nothing can be unbalanced.
        Tracer(enabled=False).end("machine")


class TestSpans:
    def test_nesting_depths(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.begin("machine", "outer")
        clock.cycle = 10
        tracer.begin("machine", "inner")
        clock.cycle = 30
        tracer.end("machine")
        clock.cycle = 50
        tracer.end("machine")
        inner, outer = tracer.spans
        assert (inner.name, inner.depth, inner.cycles) == ("inner", 1, 20)
        assert (outer.name, outer.depth, outer.cycles) == ("outer", 0, 50)
        assert tracer.open_span_names("machine") == []

    def test_span_context_manager_closes_on_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("machine", "run"):
                raise RuntimeError("kernel died")
        assert tracer.open_span_names("machine") == []
        assert tracer.spans[0].name == "run"

    def test_end_without_begin_raises(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(TraceError):
            tracer.end("machine")

    def test_complete_rejects_negative_interval(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(TraceError):
            tracer.complete("memory", "read", 10, 4)

    def test_busy_cycles_survive_record_drops(self):
        tracer = Tracer(clock=FakeClock(), max_records=2)
        for start in range(5):
            tracer.complete("memory.m00", "read", start, start + 4)
        assert tracer.dropped == 3
        assert len(tracer.spans) == 2
        assert tracer.busy_cycles() == {"memory.m00": 20}
        assert tracer.span_counts() == {"memory.m00": 5}

    def test_begin_needs_a_clock(self):
        with pytest.raises(TraceError):
            Tracer().begin("machine", "run")


def _aggregates(tracer: Tracer) -> dict:
    """Everything a counters-only tracer must keep exact."""
    snap = tracer.snapshot()
    return {
        "counter_totals": snap.counter_totals,
        "sampled_counters": snap.sampled_counters,
        "busy_cycles": snap.busy_cycles,
        "span_counts": snap.span_counts,
        "elapsed_by_epoch": snap.elapsed_by_epoch,
        "epochs": snap.epochs,
    }


class TestCountersOnly:
    """``max_records=0``: exact aggregates, no record timeline."""

    def _record_everything(self, tracer: Tracer) -> None:
        tracer.set_clock(FakeClock(7))
        tracer.count("fwd", "packets", 3)
        tracer.sample("fwd", "occupancy", 12.0, cycle=40)
        tracer.complete("memory.m00", "read", 2, 6, address=64)
        with tracer.span("machine", "run"):
            tracer.instant("ce00", "posted", value=1)
        tracer.publish("prefetch.first_word_latency", 93)

    def test_keeps_aggregates_but_no_records(self):
        full, counters_only = Tracer(), Tracer(max_records=0)
        for tracer in (full, counters_only):
            self._record_everything(tracer)
        assert not counters_only.keeps_records and full.keeps_records
        assert full.num_records == 5
        assert _aggregates(counters_only) == _aggregates(full)
        assert counters_only.num_records == 0
        assert counters_only.records_seen == 0
        assert counters_only.dropped == 0
        assert counters_only.buffer_bytes == 0
        assert counters_only.interned_strings == 0
        assert counters_only.record_counts() == {
            "spans": 0, "instants": 0, "samples": 0
        }
        assert (counters_only.spans, counters_only.instants,
                counters_only.samples) == ([], [], [])

    def test_snapshot_round_trips_with_zero_records(self):
        tracer = Tracer(max_records=0)
        self._record_everything(tracer)
        snap = tracer.snapshot()
        assert snap.num_records == 0
        payload = snap.to_bytes()
        parsed = TraceSnapshot.from_bytes(payload)
        assert parsed.num_records == 0
        assert parsed.counter_totals == snap.counter_totals
        assert parsed.busy_cycles == {"memory.m00": 4, "machine": 0}
        assert parsed.to_bytes() == payload
        assert parsed.column("spans", "start") == []
        # The exporters render an aggregates-only trace.
        assert "Component utilization" in utilization_report(tracer)
        json.loads(chrome_trace_json(tracer))

    def test_record_store_is_never_built(self, monkeypatch):
        def no_store(max_records):
            raise AssertionError("counters-only tracer built a record store")

        monkeypatch.setattr("repro.trace.tracer.ColumnarStore", no_store)
        self._record_everything(Tracer(max_records=0))

    def test_negative_bound_still_raises(self):
        with pytest.raises(TraceError):
            Tracer(max_records=-1)

    def test_complete_still_rejects_negative_interval(self):
        tracer = Tracer(clock=FakeClock(), max_records=0)
        with pytest.raises(TraceError):
            tracer.complete("memory", "read", 10, 4)

    def test_matches_full_tracer_on_contended_table2_cell(self):
        from repro.experiments import table2

        results = []
        for tracer in (Tracer(), Tracer(max_records=0)):
            with tracing(tracer):
                cell = table2.run_unit("TM:16")
            results.append((cell, _aggregates(tracer)))
        full, counters_only = results
        assert counters_only == full
        # The cell really is contended: both conflict counters move.
        for name in ("port_conflicts", "injection_rejections"):
            assert sum(
                totals.get(name, 0)
                for totals in full[1]["counter_totals"].values()
            ) > 0

    def test_matches_full_tracer_on_a_sweep_shape(self):
        from repro.builder import MachineSpec, build_config
        from repro.builder.workload import stream_kernel
        from repro.hardware.machine import CedarMachine

        config = build_config(MachineSpec(clusters=2, switch_radix=4))
        aggregates = []
        for tracer in (Tracer(), Tracer(max_records=0)):
            machine = CedarMachine(config, tracer=tracer)
            machine.run_kernel(stream_kernel(config, 2), num_ces=config.num_ces)
            aggregates.append(_aggregates(tracer))
        assert aggregates[0] == aggregates[1]

    def test_measure_spec_matches_a_recording_tracer(self, monkeypatch):
        from repro.builder import MachineSpec, workload

        spec = MachineSpec(clusters=2, switch_radix=4)
        counters_only = workload.measure_spec(spec, blocks=2)
        recording = []

        def full_tracer(**kwargs):
            recording.append(Tracer())
            return recording[-1]

        monkeypatch.setattr(workload, "Tracer", full_tracer)
        assert workload.measure_spec(spec, blocks=2) == counters_only
        assert recording and recording[0].num_records > 0


class TestEpochs:
    def test_set_clock_opens_new_epochs(self):
        tracer = Tracer()
        tracer.set_clock(FakeClock(0))
        assert tracer.epoch == 0
        tracer.complete("machine", "run", 0, 100)
        tracer.set_clock(FakeClock(0))
        assert tracer.epoch == 1
        tracer.complete("machine", "run", 0, 60)
        assert [s.epoch for s in tracer.spans] == [0, 1]
        assert tracer.elapsed_by_epoch() == {0: 100, 1: 60}


class TestCounters:
    def test_totals_accumulate(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("fwd", "packets", 3)
        tracer.count("fwd", "packets")
        assert tracer.counter_totals() == {"fwd": {"packets": 4}}

    def test_samples_are_bounded_records(self):
        tracer = Tracer(clock=FakeClock(), max_records=1)
        tracer.sample("fwd", "occupancy", 7.0, cycle=3)
        tracer.sample("fwd", "occupancy", 9.0, cycle=6)
        assert len(tracer.samples) == 1
        assert tracer.dropped == 1
        # The latest sampled value still lands in the exact totals.
        assert tracer.counters("fwd").get("occupancy") == 9.0


class TestChromeExport:
    def _traced(self) -> Tracer:
        clock = FakeClock()
        tracer = Tracer()
        tracer.set_clock(clock)
        with tracer.span("machine", "run_kernel[2 ces]"):
            clock.cycle = 100
        tracer.complete("memory.m00", "read", 5, 9, address=160)
        tracer.sample("fwd", "occupancy_words", 12.0, cycle=40)
        tracer.instant("ce00", "loop_done", cycle=90, value=1)
        return tracer

    def test_document_schema(self):
        doc = json.loads(chrome_trace_json(self._traced()))
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["cycle_ns"] == pytest.approx(170.0)
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert {"M", "X", "C", "i"} <= phases
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)

    def test_complete_events_carry_duration_in_us(self):
        events = chrome_trace_events(self._traced())
        read = next(e for e in events if e["ph"] == "X" and e["name"] == "read")
        assert read["ts"] == pytest.approx(5 * 0.17)
        assert read["dur"] == pytest.approx(4 * 0.17)
        assert read["args"]["address"] == 160
        assert read["args"]["cycles"] == 4

    def test_counter_and_metadata_events(self):
        events = chrome_trace_events(self._traced())
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"occupancy_words": 12.0}
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"machine", "memory.m00", "fwd", "ce00"} <= thread_names


class TestAmbientTracer:
    def test_tracing_installs_and_restores(self):
        assert current_tracer() is None
        tracer = Tracer()
        with tracing(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
            inner = Tracer()
            with tracing(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is None


class TestMachineIntegration:
    def _run_machine(self, tracer: Tracer) -> None:
        from repro.hardware.ce import ArmFirePrefetch, Compute, ConsumePrefetch
        from repro.hardware.machine import CedarMachine

        machine = CedarMachine(DEFAULT_CONFIG, tracer=tracer)

        def kernel(ce):
            handle = yield ArmFirePrefetch(
                length=32, stride=1, start_address=ce.global_port * 512
            )
            yield ConsumePrefetch(handle)
            yield Compute(10, flops=5.0)

        machine.run_kernel(kernel, num_ces=8)

    def test_machine_run_covers_five_plus_components(self):
        tracer = Tracer(enabled=True)
        self._run_machine(tracer)
        groups = {c.split(".", 1)[0] for c in tracer.counter_totals()}
        groups |= {c.split(".", 1)[0] for c in tracer.busy_cycles()}
        assert {"machine", "memory", "prefetch", "fwd", "rev", "engine"} <= groups
        report = utilization_report(tracer)
        assert "Component utilization" in report
        assert "memory" in report and "prefetch" in report

    def test_disabled_tracer_records_nothing_on_machine_run(self):
        quiet = Tracer(enabled=False)
        self._run_machine(quiet)
        assert quiet.num_records == 0
        assert quiet.counter_totals() == {}


class TestUtilizationRanking:
    """The report ranks groups hottest-first with a %run share column."""

    def make_tracer(self):
        tracer = Tracer(enabled=True)
        tracer.complete("fwd", "packet", 0, 30)
        tracer.complete("memory.m00", "service", 0, 40)
        tracer.complete("memory.m01", "service", 0, 20)
        tracer.complete("engine", "event", 0, 10)
        return tracer

    def test_sorted_by_busy_cycles_descending(self):
        report = utilization_report(self.make_tracer())
        lines = [l for l in report.splitlines() if "%" in l and "util" not in l]
        ranked = [line.split()[0] for line in lines]
        assert ranked == ["memory", "fwd", "engine"]

    def test_percent_of_run_column(self):
        # busy: memory 60, fwd 30, engine 10 -> shares 60/30/10 of 100
        report = utilization_report(self.make_tracer())
        assert "hottest first" in report
        rows = {
            line.split()[0]: line.split()
            for line in report.splitlines()
            if "%" in line and "util" not in line
        }
        assert rows["memory"][4] == "60.0%"
        assert rows["fwd"][4] == "30.0%"
        assert rows["engine"][4] == "10.0%"
        # util divides by wall * subunits: memory = 60 / (40 * 2)
        assert rows["memory"][5] == "75.0%"

    def test_equal_busy_breaks_ties_alphabetically(self):
        tracer = Tracer(enabled=True)
        tracer.complete("zeta", "work", 0, 10)
        tracer.complete("alpha", "work", 0, 10)
        report = utilization_report(tracer)
        assert report.index("alpha") < report.index("zeta")


class TestDegenerateReports:
    """Zero-span and overlapping-span traces must render, not crash."""

    def test_empty_tracer_reports_no_spans(self):
        report = utilization_report(Tracer(enabled=True))
        assert "No spans recorded." in report
        assert "0 records" in report
        assert "%" not in report  # no utilization table, no division

    def test_counters_without_spans_still_report(self):
        tracer = Tracer(enabled=True)
        tracer.count("fwd", "packets", 7)
        report = utilization_report(tracer)
        assert "No spans recorded." in report
        assert "fwd.packets" in report

    def test_zero_wall_clock_does_not_divide(self):
        tracer = Tracer(enabled=True)
        tracer.complete("m", "blip", 0, 0)  # zero-cycle span, zero wall
        report = utilization_report(tracer)
        assert "0.0%" in report  # util falls back to 0, no ZeroDivisionError

    def test_overlapping_spans_are_flagged_past_100_percent(self):
        tracer = Tracer(enabled=True)
        # Two overlapping cost terms on one timeline: busy 40 of wall 20.
        tracer.complete("model", "compute", 0, 20)
        tracer.complete("model", "memory", 0, 20)
        report = utilization_report(tracer)
        assert "200.0%" in report
        assert "util > 100%" in report

    def test_disabled_tracer_report_is_empty_shaped(self):
        report = utilization_report(Tracer(enabled=False))
        assert "No spans recorded." in report
