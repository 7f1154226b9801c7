"""Metric registry: counters, gauges, and windowed histograms.

Subsystems register named instruments into one :class:`MetricRegistry`
per deployment; the registry renders the post-run "top" summary and
feeds the CI telemetry smoke.  Histograms live in *virtual time*: every
observation is stamped with the simulation clock, a
:meth:`Histogram.start_window` discards warm-up samples exactly the way
:class:`repro.metrics.ThroughputMeter` does, and percentiles come from
a bounded reservoir so a soak run cannot grow memory without bound.

The null variants (:data:`NULL_REGISTRY` and the shared null
instruments it hands out) make instrumentation hooks zero-overhead when
telemetry is disabled: every ``inc``/``set``/``observe`` is a no-op
method on a singleton, no sample is stored, and -- crucially -- nothing
touches the simulation clock or any RNG stream, so instrumented and
uninstrumented runs are bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

# Re-exported from the leaf: the same objects, never redefined here.
from .null import (NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, NULL_REGISTRY,
                   NullRegistry)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NullRegistry",
]

#: Samples a histogram retains for percentile estimation (ring buffer).
DEFAULT_RESERVOIR = 4096


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that goes up and down (queue depths, pending work)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self):
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Distribution summary with virtual-time windowing.

    Running aggregates (count/sum/min/max) are exact; percentiles are
    estimated from a bounded ring-buffer reservoir of the most recent
    ``reservoir`` samples.  :meth:`start_window` resets everything so
    warm-up traffic never pollutes reported distributions.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir",
                 "_capacity", "_next", "window_start")

    def __init__(self, name: str, reservoir: int = DEFAULT_RESERVOIR):
        self.name = name
        self._capacity = reservoir
        self.window_start = 0.0
        self._reset()

    def _reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: List[Tuple[float, float]] = []
        self._next = 0

    def observe(self, value: float, t: float = 0.0) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append((t, value))
        else:
            self._reservoir[self._next] = (t, value)
            self._next = (self._next + 1) % self._capacity

    def start_window(self, now: float) -> None:
        """Discard everything observed before ``now`` (warm-up cut)."""
        self.window_start = now
        self._reset()

    def mean(self) -> float:
        if self.count == 0:
            return math.nan
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Estimated percentile over the retained reservoir."""
        if not self._reservoir:
            return math.nan
        ordered = sorted(v for _, v in self._reservoir)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }

    def __repr__(self):
        return f"<Histogram {self.name} n={self.count} mean={self.mean():.3g}>"


class MetricRegistry:
    """Create-or-return named instruments; one per deployment."""

    enabled = True

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  reservoir: int = DEFAULT_RESERVOIR) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, reservoir)
        return instrument

    def start_window(self, now: float) -> None:
        """Cut every histogram's warm-up window at ``now``."""
        for histogram in self.histograms.values():
            histogram.start_window(now)

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view (counters/gauges as numbers, hists as summaries)."""
        out: Dict[str, object] = {}
        for name, counter in self.counters.items():
            out[name] = counter.value
        for name, gauge in self.gauges.items():
            out[name] = gauge.value
        for name, histogram in self.histograms.items():
            out[name] = histogram.summary()
        return out

    def merge(self, other: "MetricRegistry") -> None:
        """Fold another registry into this one (soak aggregation).

        Counters add; gauges keep the latest (other wins); histograms
        merge aggregates exactly and concatenate reservoirs (truncated
        to capacity, so merged percentiles stay estimates).
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, theirs in other.histograms.items():
            ours = self.histogram(name, reservoir=theirs._capacity)
            ours.count += theirs.count
            ours.total += theirs.total
            ours.min = min(ours.min, theirs.min)
            ours.max = max(ours.max, theirs.max)
            for t, value in theirs._reservoir:
                if len(ours._reservoir) < ours._capacity:
                    ours._reservoir.append((t, value))
                else:
                    ours._reservoir[ours._next] = (t, value)
                    ours._next = (ours._next + 1) % ours._capacity

    def rows(self) -> List[Tuple]:
        """(metric, type, count/value, mean, p50, p99, max) table rows."""
        rows: List[Tuple] = []
        for name in sorted(self.counters):
            rows.append((name, "counter", self.counters[name].value,
                         "", "", "", ""))
        for name in sorted(self.gauges):
            rows.append((name, "gauge", self.gauges[name].value,
                         "", "", "", ""))
        for name in sorted(self.histograms):
            s = self.histograms[name].summary()
            rows.append((name, "hist", s["count"], _fmt(s["mean"]),
                         _fmt(s["p50"]), _fmt(s["p99"]), _fmt(s["max"])))
        return rows


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.4g}"
