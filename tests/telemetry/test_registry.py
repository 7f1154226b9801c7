"""Tests for the metric registry and its null variants."""

import math

from repro.telemetry import Histogram, MetricRegistry, NULL_TELEMETRY

NULL_REGISTRY = NULL_TELEMETRY.registry


class _Owner:
    """A component keeping its own count, as every metric source does."""

    def __init__(self, count=0):
        self.count = count


class TestInstruments:
    def test_counter(self):
        """A counter reads its sources when asked and sums all of them,
        including one whose owner was since replaced."""
        registry = MetricRegistry()
        old, new = _Owner(), _Owner()
        registry.counter("a/b", lambda: old.count)
        old.count = 4
        assert registry.snapshot()["a/b"] == 4
        registry.counter("a/b", lambda: new.count)
        new.count = 1
        old.count = 5
        assert registry.counters["a/b"].value == 6
        assert registry.rows() == [("a/b", "counter", 6, "", "", "", "")]

    def test_gauge(self):
        """A gauge reads its latest source alone, at report time."""
        registry = MetricRegistry()
        old, new = _Owner(3), _Owner(7)
        registry.gauge("g", lambda: old.count)
        assert registry.gauges["g"].value == 3
        registry.gauge("g", lambda: new.count)
        new.count = 2
        assert registry.snapshot()["g"] == 2

    def test_histogram_aggregates(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean() == 2.0
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 3.0

    def test_histogram_percentile_stays_within_min_and_max(self):
        # Both half-terms of a subnormal interpolation round to zero;
        # the shared percentile clamps the result back into range.
        hist = Histogram("h")
        hist.observe(5e-324)
        hist.observe(5e-324)
        assert hist.percentile(50) == 5e-324
        assert hist.min <= hist.percentile(50) <= hist.max

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
        registry.counter("c", lambda: 2)
        registry.gauge("g", lambda: 1.5)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricRegistry(), MetricRegistry()
        source = _Owner(2)
        a.counter("c", lambda: 1)
        b.counter("c", lambda: source.count)
        b.counter("only-b", lambda: 7)
        a.gauge("g", lambda: 1.0)
        b.gauge("g", lambda: 9.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        source.count = 100   # merged values are read at merge time
        assert a.snapshot()["c"] == 3
        assert a.snapshot()["only-b"] == 7
        assert a.snapshot()["g"] == 9.0
        assert a.histogram("h").count == 2
        assert a.histogram("h").mean() == 2.0

    def test_rows_sorted_and_typed(self):
        registry = MetricRegistry()
        registry.counter("z", lambda: 1)
        registry.counter("a", lambda: 1)
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
        # One object is every part of the disabled bundle.
        assert NULL_REGISTRY is NULL_TELEMETRY
        assert NULL_REGISTRY.histogram("x") is NULL_TELEMETRY
        assert NULL_REGISTRY.histogram("y") is NULL_TELEMETRY

    def test_noops_store_nothing(self):
        def never_read():
            raise AssertionError("a dropped registration was read")

        NULL_REGISTRY.counter("c", never_read)
        NULL_REGISTRY.gauge("g", never_read)
        NULL_REGISTRY.histogram("h")

    def test_enabled_flags(self):
        assert MetricRegistry().enabled
        assert not NULL_REGISTRY.enabled
