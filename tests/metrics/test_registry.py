"""Tests for the metrics registry (repro.metrics.registry)."""

import math

import pytest

from repro.errors import MetricsError
from repro.metrics import MetricsRegistry, flat_series_name
from repro.metrics.registry import canonical_labels


class TestNamesAndLabels:
    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "9lives", "has space", "dash-ed", "perc%"):
            with pytest.raises(MetricsError):
                registry.counter(bad)

    def test_valid_names_accepted(self):
        registry = MetricsRegistry()
        for good in ("a", "_lead", "ns:sub", "x9", "sim_busy_cycles"):
            registry.gauge(good)
        assert len(registry) == 5

    def test_labels_are_canonicalized(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", {"b": 2, "a": 1})
        b = registry.counter("hits", {"a": "1", "b": "2"})
        assert a is b
        assert a.labels == (("a", "1"), ("b", "2"))

    def test_distinct_labels_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"ce": 0}).inc()
        registry.counter("hits", {"ce": 1}).inc(5)
        assert registry.counter("hits", {"ce": 0}).value == 1
        assert registry.counter("hits", {"ce": 1}).value == 5
        assert len(registry.series("hits")) == 2

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("x")

    def test_canonical_labels_empty(self):
        assert canonical_labels(None) == ()
        assert canonical_labels({}) == ()

    def test_flat_series_name(self):
        assert flat_series_name("m", ()) == "m"
        assert flat_series_name("m", (("a", "1"),)) == "m{a=1}"


class TestCounter:
    def test_accumulates(self):
        counter = MetricsRegistry().counter("events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("events")
        with pytest.raises(MetricsError, match="cannot decrease"):
            counter.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("mflops")
        gauge.set(10)
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_add(self):
        gauge = MetricsRegistry().gauge("level")
        gauge.add(3)
        gauge.add(-1)
        assert gauge.value == 2

    def test_rejects_non_finite(self):
        gauge = MetricsRegistry().gauge("bad")
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(MetricsError, match="non-finite"):
                gauge.set(value)


class TestHistogram:
    def test_log_bucket_edges(self):
        histogram = MetricsRegistry().histogram("latency")
        # base 2: bucket i covers [2**i, 2**(i+1))
        assert histogram.bucket_index(1) == 0
        assert histogram.bucket_index(2) == 1
        assert histogram.bucket_index(3) == 1
        assert histogram.bucket_index(4) == 2
        assert histogram.bucket_index(1023) == 9
        assert histogram.bucket_index(1024) == 10

    def test_underflow_bucket(self):
        histogram = MetricsRegistry().histogram("latency")
        histogram.observe(0)
        histogram.observe(0.5)
        assert histogram.buckets == {-1: 2}
        assert histogram.bucket_upper_bound(-1) == 1.0

    def test_exact_aggregates(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (8, 9, 27, 0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 44
        assert histogram.min == 0
        assert histogram.max == 27
        assert histogram.mean() == 11.0

    def test_negative_rejected(self):
        histogram = MetricsRegistry().histogram("latency")
        with pytest.raises(MetricsError, match="negative"):
            histogram.observe(-1)

    def test_empty_mean_raises(self):
        histogram = MetricsRegistry().histogram("latency")
        with pytest.raises(MetricsError, match="empty"):
            histogram.mean()

    def test_bad_base_rejected(self):
        with pytest.raises(MetricsError, match="base"):
            from repro.metrics.registry import Histogram

            Histogram("h", base=1.0)


class TestFlatDict:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("events", {"ce": 3}).inc(7)
        registry.gauge("mflops").set(52.2)
        histogram = registry.histogram("lat")
        histogram.observe(8)
        histogram.observe(16)
        flat = registry.as_flat_dict()
        assert flat["events{ce=3}"] == 7
        assert flat["mflops"] == 52.2
        assert flat["lat_count"] == 2
        assert flat["lat_sum"] == 24
        assert flat["lat_min"] == 8
        assert flat["lat_max"] == 16
        assert flat["lat_mean"] == 12

    def test_empty_histogram_has_no_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        flat = registry.as_flat_dict()
        assert flat == {"lat_count": 0, "lat_sum": 0.0}

    def test_iteration_is_deterministic(self):
        registry = MetricsRegistry()
        registry.gauge("z")
        registry.gauge("a", {"k": 2})
        registry.gauge("a", {"k": 1})
        assert [
            (i.name, i.labels) for i in registry
        ] == [
            ("a", (("k", "1"),)),
            ("a", (("k", "2"),)),
            ("z", ()),
        ]
