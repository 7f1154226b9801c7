"""Point-to-point links.

A link models propagation delay plus serialization at a byte rate.
Delivery is FIFO: a packet never overtakes an earlier one on the same
link, which the FTC protocol relies on between adjacent replicas
(sequence numbers still guard against drops, which the link can also
inject for fault testing).

Under a :class:`repro.net.impairment.DataImpairment` (installed via
:meth:`Network.impair_data`) a link additionally drops, duplicates,
reorders, and corrupts packets from a dedicated seeded stream -- the
data-plane adversity the reliability layer (``repro.net.channel``)
exists to survive.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim import RateLimiter, Simulator
from ..telemetry import NULL_TELEMETRY
from .impairment import Corrupted, DataImpairment

__all__ = ["Link", "LossyLink"]


class _NoServer:
    """The receiver of a bare link (tests, legacy stubs): never fails."""

    failed = False


_NO_SERVER = _NoServer()


class Link:
    """A unidirectional link with delay and bandwidth.

    ``sink`` is a callable invoked with each delivered packet (usually
    a NIC's ``receive``).  ``dst`` is the receiving server, if any: a
    packet that arrives while it is failed goes to ``on_dead`` instead,
    whatever sink adopted the link -- a dead NIC receives nothing, so a
    reliability layer bound on top never acknowledges for a corpse.
    """

    def __init__(self, sim: Simulator, sink: Callable[[Any], None],
                 delay_s: float = 5e-6, bandwidth_bps: float = 40e9,
                 name: str = "link", telemetry=None, dst=None,
                 on_dead: Callable[[Any], None] = lambda packet: None):
        self.sim = sim
        self.sink = sink
        self.dst = dst if dst is not None else _NO_SERVER
        self.on_dead = on_dead
        self.delay_s = delay_s
        self.bandwidth_bps = bandwidth_bps
        self.name = name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.registry.counter("drops/link-impair",
                                        lambda: self.impair_dropped)
        self.tx_packets = 0
        self.tx_bytes = 0
        self._impairment: Optional[DataImpairment] = None
        self._impair_rng = None
        self.impair_dropped = 0
        self.impair_duplicated = 0
        self.impair_reordered = 0
        self.impair_corrupted = 0
        # Its items are wire sizes: send() reads a packet's once.
        self._serializer = RateLimiter(
            sim, rate=1e12,  # negligible base slot; cost_fn dominates
            cost_fn=self._serialization_time, name=f"{name}/serializer")

    def _serialization_time(self, wire_bytes: int) -> float:
        return wire_bytes * 8.0 / self.bandwidth_bps

    def send(self, packet) -> None:
        """Enqueue a packet; it arrives after serialization + delay."""
        spec = self._impairment
        if spec is not None and spec.active(self.sim.now):
            self._send_impaired(packet, spec)
            return
        wire_bytes = packet.wire_size
        self.tx_packets += 1
        self.tx_bytes += wire_bytes
        serialization = self._serializer.admission_delay(wire_bytes)
        dst = self.dst
        self.sim.schedule_callback(
            serialization + self.delay_s,
            lambda: self.on_dead(packet) if dst.failed else self.sink(packet))

    # -- impairment ----------------------------------------------------------

    def set_impairment(self, spec: Optional[DataImpairment], rng) -> None:
        """Install (or clear, with ``None``) data-plane impairment."""
        self._impairment = spec
        self._impair_rng = rng

    def clear_impairment(self) -> None:
        self._impairment = None

    def _send_impaired(self, packet, spec: DataImpairment) -> None:
        """One impaired transmission: drop / dup / corrupt / reorder.

        Draw order is fixed (drop, dup, then per-copy corrupt and
        reorder) so a run is a pure function of the impairment stream.
        Duplicates burn wire time for each copy; dropped packets still
        count as offered (``tx_packets``/``tx_bytes`` measure what the
        sender pushed into the link, as on the unimpaired path).
        """
        rng = self._impair_rng
        wire_bytes = packet.wire_size  # a corrupted copy weighs the same
        self.tx_packets += 1
        self.tx_bytes += wire_bytes
        if spec.drop_rate and rng.random() < spec.drop_rate:
            self.impair_dropped += 1
            if self.telemetry.enabled:
                self.telemetry.emit("link", "impair-drop", t=self.sim.now,
                                    pid=getattr(packet, "pid", None),
                                    name=self.name)
            return
        copies = 1
        if spec.dup_rate and rng.random() < spec.dup_rate:
            copies = 2
            self.impair_duplicated += 1
            self.tx_packets += 1
            self.tx_bytes += wire_bytes
        for _ in range(copies):
            deliver = packet
            if spec.corrupt_rate and rng.random() < spec.corrupt_rate:
                self.impair_corrupted += 1
                deliver = Corrupted(packet)
            extra = 0.0
            if spec.reorder_rate and rng.random() < spec.reorder_rate:
                self.impair_reordered += 1
                extra = spec.reorder_delay_s * (1.0 + rng.random())
            serialization = self._serializer.admission_delay(wire_bytes)
            self.sim.schedule_callback(
                serialization + self.delay_s + extra,
                lambda p=deliver, dst=self.dst: (
                    self.on_dead(p) if dst.failed else self.sink(p)))


class LossyLink(Link):
    """A link that deterministically drops packets (legacy test stub).

    ``drop_fn`` decides per packet; by default a deterministic
    every-Nth-packet drop so tests are reproducible.  Superseded by
    :class:`repro.net.impairment.DataImpairment` (seeded probabilistic
    drop/dup/reorder/corrupt on any :class:`Link`); kept for tests that
    want an exact, countable drop pattern.
    """

    def __init__(self, sim: Simulator, sink: Callable[[Any], None],
                 drop_every: int = 0,
                 drop_fn: Optional[Callable[[Any], bool]] = None,
                 **kwargs):
        super().__init__(sim, sink, **kwargs)
        self.drop_every = drop_every
        self.drop_fn = drop_fn
        self.dropped = 0

    def send(self, packet) -> None:
        # Dropped packets still count as offered: the sender serialized
        # them into the wire; they just never reach the sink.
        if self.drop_fn is not None and self.drop_fn(packet):
            self.tx_packets += 1
            self.tx_bytes += packet.wire_size
            self.dropped += 1
            return
        if self.drop_every and (self.tx_packets + 1) % self.drop_every == 0:
            self.tx_packets += 1
            self.tx_bytes += packet.wire_size
            self.dropped += 1
            return
        super().send(packet)
