"""Small statistics helpers (percentiles, CDFs, confidence intervals).

Pure-Python and dependency-free so the core library stays importable
without numpy; the benchmark harness may still use numpy for speed.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = ["mean", "stdev", "percentile", "confidence_interval95"]


def mean(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("mean of empty sample set")
    return sum(samples) / len(samples)


def stdev(samples: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator)."""
    if len(samples) < 2:
        return 0.0
    mu = mean(samples)
    return math.sqrt(sum((x - mu) ** 2 for x in samples) / (len(samples) - 1))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q!r} out of range")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # Clamp: with subnormal/extreme floats the rounded interpolation
    # can escape [ordered[low], ordered[high]] (e.g. both half-terms
    # of 5e-324 round to zero), and a percentile must stay in range.
    value = ordered[low] * (1 - frac) + ordered[high] * frac
    return min(max(value, ordered[low]), ordered[high])


def confidence_interval95(samples: Sequence[float]) -> Tuple[float, float]:
    """(mean, half-width) of a normal-approximation 95% CI."""
    mu = mean(samples)
    if len(samples) < 2:
        return mu, 0.0
    half = 1.96 * stdev(samples) / math.sqrt(len(samples))
    return mu, half
