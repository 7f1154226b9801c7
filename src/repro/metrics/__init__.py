"""Measurement: meters, statistics, and report formatting."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "meters": ("EgressRecorder", "LatencySampler", "ThroughputMeter"),
    "reporting": ("format_table",),
    "stats": ("confidence_interval95", "mean", "percentile", "stdev"),
})
