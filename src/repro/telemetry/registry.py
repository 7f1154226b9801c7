"""Metric registry: counters and gauges read on demand, windowed histograms.

Subsystems register named instruments into one :class:`MetricRegistry`
per deployment; the registry renders the post-run "top" summary and
feeds the CI telemetry smoke.  A counter or gauge stores nothing: its
owner registers a callable that reads the count it already keeps
(``registry.counter("channel/retransmissions", lambda:
self.retransmissions)``), and the registry calls it when a report asks
-- ``rows()``, ``snapshot()``, ``merge()`` and the flight dump.  A
counter sums every source ever registered under its name, so a
replaced component keeps counting; a gauge reads its latest source.
Histograms are pushed (a distribution cannot be read back after the
fact) and live in *virtual time*: every observation is stamped with
the simulation clock, a :meth:`Histogram.start_window` discards
warm-up samples exactly the way :class:`repro.metrics.ThroughputMeter`
does, and percentiles come from a bounded reservoir so a soak run
cannot grow memory without bound.

With telemetry off (:data:`~repro.telemetry.NULL_TELEMETRY`) a
registration is dropped and a histogram is that same no-op object:
counters and gauges cost nothing on the hot path, and nothing touches
the simulation clock or any RNG stream, so instrumented and
uninstrumented runs are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from ..metrics.stats import percentile

__all__ = ["Histogram", "MetricRegistry"]

#: Samples a histogram retains for percentile estimation (ring buffer).
DEFAULT_RESERVOIR = 4096


class _Reading:
    """A counter or gauge: its name and the callables that read it.

    The value is the sum of their reads; a gauge keeps one source.
    """

    __slots__ = ("name", "sources")

    def __init__(self, name: str):
        self.name = name
        self.sources: List[Callable[[], float]] = []

    @property
    def value(self) -> float:
        return sum(read() for read in self.sources)

    def __repr__(self):
        return f"<{self.name}={self.value}>"


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
        return percentile([v for _, v in self._reservoir], q)

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
    """Named instruments; one per deployment."""

    enabled = True

    def __init__(self):
        self.counters: Dict[str, _Reading] = {}
        self.gauges: Dict[str, _Reading] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, read: Callable[[], int]) -> None:
        """Count ``name`` as ``read()`` plus every earlier source of it."""
        _reading(self.counters, name).sources.append(read)

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        """Gauge ``name`` as ``read()``, replacing any earlier source."""
        _reading(self.gauges, name).sources[:] = [read]

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
        for name, reading in self.counters.items():
            out[name] = reading.value
        for name, reading in self.gauges.items():
            out[name] = reading.value
        for name, histogram in self.histograms.items():
            out[name] = histogram.summary()
        return out

    def merge(self, other: "MetricRegistry") -> None:
        """Fold another registry into this one (soak aggregation).

        Counters and gauges are read once, now: counters add, gauges
        keep the latest (other wins).  Histograms merge aggregates
        exactly and concatenate reservoirs (truncated to capacity, so
        merged percentiles stay estimates).
        """
        for name, reading in other.counters.items():
            self.counter(name, _fixed(reading.value))
        for name, reading in other.gauges.items():
            self.gauge(name, _fixed(reading.value))
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


def _reading(table: Dict[str, _Reading], name: str) -> _Reading:
    reading = table.get(name)
    if reading is None:
        reading = table[name] = _Reading(name)
    return reading


def _fixed(value: float) -> Callable[[], float]:
    return lambda: value


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.4g}"
