"""Tests for the Prometheus exporter (repro.metrics.export)."""

import pytest

from repro.errors import MetricsError
from repro.metrics import MetricsRegistry, prometheus_text
from tests.metrics.prometheus_reader import parse_prometheus


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "sim_counter_total",
        {"component": "memory.m00", "counter": "requests_served"},
        help="trace-bus counter totals",
    ).inc(684656)
    registry.gauge("mflops", {"version": "GM/cache"}).set(208.2)
    registry.gauge("mflops", {"version": "GM/pref"}).set(92.2)
    histogram = registry.histogram("first_word_latency", help="Table 2")
    for value in (8, 8, 9, 13, 27):
        histogram.observe(value)
    return registry


class TestPrometheusRoundTrip:
    def test_every_series_round_trips(self):
        registry = populated_registry()
        samples = parse_prometheus(prometheus_text(registry))
        assert (
            samples[
                "sim_counter_total{component=memory.m00,counter=requests_served}"
            ]
            == 684656
        )
        assert samples["mflops{version=GM/cache}"] == 208.2
        assert samples["mflops{version=GM/pref}"] == 92.2
        # histogram: cumulative buckets, sum, count
        assert samples["first_word_latency_count"] == 5
        assert samples["first_word_latency_sum"] == 65
        assert samples["first_word_latency_bucket{le=+Inf}"] == 5
        # 8, 8, 9, 13 in [8, 16); 27 in [16, 32)
        assert samples["first_word_latency_bucket{le=16}"] == 4
        assert samples["first_word_latency_bucket{le=32}"] == 5

    def test_help_and_type_lines_present(self):
        text = prometheus_text(populated_registry())
        assert "# HELP sim_counter_total trace-bus counter totals" in text
        assert "# TYPE sim_counter_total counter" in text
        assert "# TYPE mflops gauge" in text
        assert "# TYPE first_word_latency histogram" in text

    def test_counter_total_suffix_not_doubled(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc(3)
        text = prometheus_text(registry)
        assert "events_total 3" in text
        assert "events_total_total" not in text

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.gauge("g", {"path": 'a"b\\c'}).set(1)
        samples = parse_prometheus(prometheus_text(registry))
        assert samples == {'g{path=a"b\\c}': 1.0}

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}

    def test_parser_rejects_garbage(self):
        with pytest.raises(MetricsError, match="unparseable"):
            parse_prometheus("not a metric line at all!")
        with pytest.raises(MetricsError, match="value"):
            parse_prometheus("metric_name not_a_number")


class TestHostileLabelValues:
    """Round trips for label values an external submitter controls.

    `GET /metrics` on the serve tier exposes request-supplied strings as
    label values, so the exporter/parser pair must survive anything a
    client can put in a JSON string -- not just the polite values the
    simulator generates itself.
    """

    HOSTILE = [
        "line1\nline2",            # embedded newline
        "\n",                      # newline only
        "back\\slash",             # lone backslash
        "\\n",                     # backslash followed by n (not a newline!)
        "\\\\n",                   # two backslashes then n
        'quote"inside',            # double quote
        '"',                       # quote only
        "",                        # empty value
        "trailing\\",              # trailing backslash
        'mix"\\\n"end',            # everything at once
        "a}b{c",                   # braces (never escaped by the format)
        "comma,equals=x",          # label-syntax lookalikes
        "café ☃",        # non-ASCII survives utf-8 round trip
    ]

    def test_each_hostile_value_round_trips(self):
        for value in self.HOSTILE:
            registry = MetricsRegistry()
            registry.gauge("g", {"v": value}).set(1.5)
            samples = parse_prometheus(prometheus_text(registry))
            assert samples == {"g{v=" + value + "}": 1.5}, repr(value)

    def test_all_hostile_values_in_one_exposition(self):
        registry = MetricsRegistry()
        for index, value in enumerate(self.HOSTILE):
            registry.counter(
                "hostile_total", {"v": value, "i": str(index)}
            ).inc(index + 1)
        samples = parse_prometheus(prometheus_text(registry))
        assert len(samples) == len(self.HOSTILE)
        assert sum(samples.values()) == sum(
            index + 1 for index in range(len(self.HOSTILE))
        )

    def test_backslash_n_distinct_from_newline(self):
        # The literal two-character sequence and a real newline must not
        # collapse to the same series after a round trip.
        registry = MetricsRegistry()
        registry.gauge("g", {"v": "\\n"}).set(1)
        registry.gauge("g", {"v": "\n"}).set(2)
        samples = parse_prometheus(prometheus_text(registry))
        assert samples["g{v=\\n}"] == 1
        assert samples["g{v=\n}"] == 2

    def test_hostile_values_in_histogram_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", {"cfg": 'a"\\\nz'})
        for value in (1, 2, 4):
            histogram.observe(value)
        samples = parse_prometheus(prometheus_text(registry))
        assert samples['lat_count{cfg=a"\\\nz}'] == 3
        assert samples['lat_sum{cfg=a"\\\nz}'] == 7
