"""Measurement instruments: throughput meters and latency samplers.

These play the role of the paper's pktgen (throughput) and MoonGen
(latency) measurement sides.  The figures read throughput as
``count / window``: the packets released in the measurement window
over its length.  Latency is the sample mean or a percentile of the
per-packet one-way latencies in that window.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..net.packet import Packet
from ..sim import Simulator
from .stats import mean, percentile

__all__ = ["ThroughputMeter", "LatencySampler", "EgressRecorder"]


class ThroughputMeter:
    """Counts packets and reports rates over virtual-time windows."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.count = 0
        self.bytes = 0
        self._window_start: Optional[float] = None

    def record(self, packet: Packet) -> None:
        if self._window_start is None:
            self._window_start = self.sim.now
        self.count += 1
        self.bytes += packet.size

    def start_window(self) -> None:
        """Begin measuring from now (discard warm-up packets)."""
        self._window_start = self.sim.now
        self.count = 0
        self.bytes = 0

    @property
    def elapsed(self) -> float:
        if self._window_start is None:
            return 0.0
        return self.sim.now - self._window_start

    def rate_pps(self, until: Optional[float] = None) -> float:
        end = self.sim.now if until is None else until
        if self._window_start is None or end <= self._window_start:
            return 0.0
        return self.count / (end - self._window_start)

    def rate_mpps(self, until: Optional[float] = None) -> float:
        return self.rate_pps(until) / 1e6

    def rate_gbps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.bytes * 8.0 / self.elapsed / 1e9


class LatencySampler:
    """Collects per-packet one-way latency samples at chain egress."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.samples = array("d")
        self._accept_after = 0.0

    def start_after(self, time: float) -> None:
        """Ignore packets created before ``time`` (warm-up)."""
        self._accept_after = time

    def record(self, packet: Packet) -> None:
        if packet.created_at < self._accept_after:
            return
        self.samples.append(self.sim.now - packet.created_at)

    def __len__(self) -> int:
        return len(self.samples)

    def mean_us(self) -> float:
        """Mean latency in µs; NaN when no samples survived warm-up."""
        if not self.samples:
            return float("nan")
        return mean(self.samples) * 1e6

    def percentile_us(self, q: float) -> float:
        """Percentile latency in µs; NaN when no samples survived warm-up."""
        if not self.samples:
            return float("nan")
        return percentile(self.samples, q) * 1e6


class EgressRecorder:
    """A chain egress sink combining throughput + latency measurement.

    Use as the ``deliver`` callable of a chain; packets are counted,
    latency-sampled, and optionally retained for content checks.
    """

    def __init__(self, sim: Simulator, keep_packets: bool = False):
        self.sim = sim
        self.throughput = ThroughputMeter(sim)
        self.latency = LatencySampler(sim)
        self.keep_packets = keep_packets
        self.packets: List[Packet] = []

    def __call__(self, packet: Packet) -> None:
        self.throughput.record(packet)
        self.latency.record(packet)
        if self.keep_packets:
            self.packets.append(packet)

    @property
    def count(self) -> int:
        return self.throughput.count
