"""Tests for the metric registry and its null variants."""

import math

from repro.telemetry import (
    Histogram,
    MetricRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)


class TestInstruments:
    def test_counter(self):
        registry = MetricRegistry()
        counter = registry.counter("a/b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("a/b") is counter

    def test_gauge(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0
        assert registry.gauge("g") is gauge

    def test_histogram_aggregates(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean() == 2.0
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 3.0

    def test_histogram_empty_is_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.mean())
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.summary()["max"])

    def test_histogram_warmup_window(self):
        hist = Histogram("h")
        hist.observe(100.0, t=0.0)
        hist.start_window(1.0)
        hist.observe(1.0, t=1.5)
        assert hist.count == 1
        assert hist.mean() == 1.0
        assert hist.window_start == 1.0

    def test_histogram_reservoir_bounded(self):
        hist = Histogram("h", reservoir=8)
        for i in range(1000):
            hist.observe(float(i))
        assert hist.count == 1000
        assert len(hist._reservoir) == 8
        # Aggregates stay exact even when the reservoir wraps.
        assert hist.max == 999.0 and hist.min == 0.0


class TestRegistry:
    def test_snapshot(self):
        registry = MetricRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.counter("only-b").inc(7)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.counter("only-b").value == 7
        assert a.gauge("g").value == 9.0
        assert a.histogram("h").count == 2
        assert a.histogram("h").mean() == 2.0

    def test_rows_sorted_and_typed(self):
        registry = MetricRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(1.0)
        rows = registry.rows()
        assert [r[0] for r in rows] == ["a", "z", "h"]
        assert rows[0][1] == "counter" and rows[2][1] == "hist"

    def test_start_window_cuts_every_histogram(self):
        registry = MetricRegistry()
        registry.histogram("h1").observe(1.0)
        registry.histogram("h2").observe(2.0)
        registry.start_window(5.0)
        assert registry.histogram("h1").count == 0
        assert registry.histogram("h2").count == 0


class TestNullVariants:
    def test_shared_singletons(self):
        assert NULL_REGISTRY.counter("x") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("x") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("x") is NULL_HISTOGRAM

    def test_noops_store_nothing(self):
        NULL_COUNTER.inc(100)
        NULL_GAUGE.set(5.0)
        NULL_HISTOGRAM.observe(1.0, t=2.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.rows() == []

    def test_enabled_flags(self):
        assert MetricRegistry().enabled
        assert not NULL_REGISTRY.enabled
