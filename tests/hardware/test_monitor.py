"""Tests for the performance-monitoring hardware."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import MonitorError
from repro.hardware.monitor import EventTracer, Histogrammer, PerformanceMonitor


class TestEventTracer:
    def test_captures_only_when_armed(self):
        tracer = EventTracer(DEFAULT_CONFIG.monitor)
        tracer.post(1, "sig")
        assert len(tracer) == 0
        tracer.start()
        tracer.post(2, "sig")
        tracer.stop()
        tracer.post(3, "sig")
        assert len(tracer) == 1

    def test_capacity_and_drop_counting(self):
        from repro.config import MonitorConfig
        tiny = MonitorConfig(tracer_capacity_events=2)
        tracer = EventTracer(tiny)
        tracer.start()
        for cycle in range(5):
            tracer.post(cycle, "x")
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_cascade_multiplies_capacity(self):
        from repro.config import MonitorConfig
        tiny = MonitorConfig(tracer_capacity_events=2)
        tracer = EventTracer(tiny, cascade=3)
        assert tracer.capacity == 6

    def test_signal_filtering(self):
        tracer = EventTracer(DEFAULT_CONFIG.monitor)
        tracer.start()
        tracer.post(1, "a")
        tracer.post(2, "b")
        assert [e.signal for e in tracer.events("a")] == ["a"]

    def test_invalid_cascade(self):
        with pytest.raises(MonitorError):
            EventTracer(DEFAULT_CONFIG.monitor, cascade=0)


class TestHistogrammer:
    def test_mean_of_recorded_values(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor)
        for value in (8, 10, 12):
            histogram.record(value)
        assert histogram.mean() == pytest.approx(10.0)

    def test_bin_width_groups_values(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor, bin_width=10)
        histogram.record(5)
        histogram.record(7)
        assert histogram.counts() == {0: 2}

    def test_overflow_beyond_counters(self):
        from repro.config import MonitorConfig
        tiny = MonitorConfig(histogrammer_counters=4)
        histogram = Histogrammer(tiny)
        histogram.record(100)
        assert histogram.counts() == {}
        assert histogram.total == 0

    def test_percentile(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor)
        for value in range(1, 101):
            histogram.record(value)
        assert histogram.percentile(0.5) == 50
        assert histogram.percentile(1.0) == 100

    def test_empty_histogram_errors(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor)
        with pytest.raises(MonitorError):
            histogram.mean()
        with pytest.raises(MonitorError):
            histogram.percentile(0.5)

    def test_negative_values_rejected(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor)
        with pytest.raises(MonitorError):
            histogram.record(-1)

    def test_wide_bin_mean_uses_midpoints(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor, bin_width=10)
        histogram.record(5)
        histogram.record(7)
        # Both land in bin [0, 10), whose midpoint is 4.5.
        assert histogram.mean() == pytest.approx(4.5)

    def test_percentile_at_full_fraction_is_max_bin(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor, bin_width=4)
        for value in (1, 9, 17):
            histogram.record(value)
        assert histogram.percentile(1.0) == 16

    def test_counters_saturate_at_32_bits(self):
        histogram = Histogrammer(DEFAULT_CONFIG.monitor)
        histogram._counters[0] = 2**32 - 1
        histogram.record(0)
        assert histogram._counters[0] == 2**32 - 1


class TestPerformanceMonitor:
    def test_named_instruments_are_singletons(self):
        monitor = PerformanceMonitor(DEFAULT_CONFIG.monitor)
        assert monitor.tracer("a") is monitor.tracer("a")
        assert monitor.histogram("h") is monitor.histogram("h")

    def test_tracer_full_flag(self):
        from repro.config import MonitorConfig

        tracer = EventTracer(MonitorConfig(tracer_capacity_events=2))
        tracer.start()
        assert not tracer.full
        tracer.post(1, "x")
        tracer.post(2, "x")
        assert tracer.full
        assert tracer.dropped == 0  # full is a warning, not yet a loss

    def test_latency_summary_names_missing_histograms(self):
        monitor = PerformanceMonitor(DEFAULT_CONFIG.monitor)
        with pytest.raises(MonitorError, match=r"'first_word_latency', 'interarrival'"):
            monitor.latency_summary()
        monitor.histogram("first_word_latency").record(90)
        with pytest.raises(MonitorError) as excinfo:
            monitor.latency_summary()
        message = str(excinfo.value)
        assert "'interarrival'" in message
        assert "'first_word_latency'" not in message
        assert "record_prefetch" in message

    def test_latency_summary_via_trace_bus(self):
        """A bus-connected monitor hears record_prefetch as signals."""
        from repro.trace import Tracer

        class Handle:
            @staticmethod
            def first_word_latency():
                return 90

            @staticmethod
            def interarrival_times():
                return [4, 6]

        bus = Tracer(enabled=False)
        connected = PerformanceMonitor(DEFAULT_CONFIG.monitor)
        connected.connect(bus)
        standalone = PerformanceMonitor(DEFAULT_CONFIG.monitor)
        connected.record_prefetch(Handle)
        standalone.record_prefetch(Handle)
        assert connected.latency_summary() == standalone.latency_summary()
        assert connected.latency_summary() == pytest.approx((90.0, 5.0))

    def test_bus_cabling_creates_a_histogram_on_its_first_value(self):
        """Connecting creates no histogram; the first value creates it and
        puts its ``record`` on the bus, in the cabling's own place."""
        from repro.trace import Tracer

        bus = Tracer(enabled=False, max_records=0)
        later = []
        monitor = PerformanceMonitor(DEFAULT_CONFIG.monitor)
        monitor.connect(bus)
        bus.subscribe(PerformanceMonitor.INTERARRIVAL_SIGNAL, later.append)
        assert monitor.histogram_summaries() == {}
        bus.publish(PerformanceMonitor.INTERARRIVAL_SIGNAL, 3)
        histogram = monitor.histogram("interarrival")
        handlers = bus._subscribers[PerformanceMonitor.INTERARRIVAL_SIGNAL]
        assert handlers == [histogram.record, later.append]
        bus.publish(PerformanceMonitor.INTERARRIVAL_SIGNAL, 5)
        assert histogram.counts() == {3: 1, 5: 1}
        assert later == [3, 5]
        assert list(monitor.histogram_summaries()) == ["interarrival"]

    def test_software_events_travel_over_the_bus(self):
        from repro.trace import Tracer

        bus = Tracer(enabled=False)
        monitor = PerformanceMonitor(DEFAULT_CONFIG.monitor)
        monitor.connect(bus)
        monitor.tracer("software").start()
        bus.publish(PerformanceMonitor.SOFTWARE_SIGNAL, (42, "loop_done", 7))
        events = monitor.tracer("software").events("loop_done")
        assert [(e.cycle, e.value) for e in events] == [(42, 7)]
