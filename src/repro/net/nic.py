"""Multi-queue NIC model.

The paper's evaluation is repeatedly NIC-bound: footnote 1 measures the
Mellanox ConnectX-3's packet engine at 9.6--10.6 Mpps regardless of
link rate, and NF/FTC saturate it at 8 threads (Fig 6, Fig 7) while
FTMB halves it by sending one PAL message per data packet (§7.3).

We model the packet engine as a single pps rate limiter shared by all
queues, followed by receive-side scaling (RSS) into per-queue FIFO
buffers with finite capacity.  Everything that arrives -- data packets
and protocol messages alike -- consumes engine slots, which is exactly
the mechanism behind FTMB's 5.26 Mpps ceiling.

Tail drops are never silent (PROTOCOL.md §12.2): each one increments
``rx_dropped``, the ``drops/nic`` metric, and emits a flight event
when telemetry is wired.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import RateLimiter, Simulator, Store
from ..telemetry import NULL_TELEMETRY
from .packet import Packet

__all__ = ["NIC", "DEFAULT_NIC_PPS"]

#: Packets/second the NIC packet engine can process (paper footnote 1:
#: 9.6--10.6 Mpps measured; we take the midpoint of their range).
DEFAULT_NIC_PPS = 10.5e6

#: Descriptors per receive queue (typical DPDK ring size).
DEFAULT_QUEUE_DEPTH = 4096


class NIC:
    """A multi-queue NIC attached to a server.

    Packets delivered by a link enter through :meth:`receive`; worker
    threads consume from :attr:`queues`.  Transmit goes straight to a
    link (the engine limit is modelled once, on the receive path, as in
    the paper's measurement).
    """

    def __init__(self, sim: Simulator, n_queues: int = 1,
                 pps_capacity: float = DEFAULT_NIC_PPS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 name: str = "nic", telemetry=None):
        if n_queues < 1:
            raise ValueError("a NIC needs at least one queue")
        self.sim = sim
        self.name = name
        self.n_queues = n_queues
        self.queue_depth = queue_depth
        self.queues: List[Store] = [
            Store(sim, capacity=queue_depth, name=f"{name}/q{i}")
            for i in range(n_queues)
        ]
        self._engine = RateLimiter(sim, rate=pps_capacity,
                                   name=f"{name}/engine")
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.registry.counter("drops/nic", lambda: self.rx_dropped)
        self.rx_packets = 0
        self.rx_dropped = 0

    def queue_for(self, packet: Packet) -> int:
        """RSS: map a packet's flow to a receive queue."""
        return packet.flow.rss_hash() % self.n_queues

    def receive(self, packet: Packet) -> None:
        """Entry point for links: engine admission, then RSS enqueue."""
        delay = self._engine.admission_delay(packet)
        self.sim.schedule_callback(delay, lambda: self._enqueue(packet))

    def _drop(self, packet: Packet) -> None:
        self.rx_dropped += 1
        if self.telemetry.enabled:
            self.telemetry.emit("nic", "tail-drop", t=self.sim.now,
                                pid=packet.pid, name=self.name,
                                depth=self.queue_depth)

    def _enqueue(self, packet: Packet) -> None:
        # queue_for(packet), written out.
        queue = self.queues[packet.flow.rss_hash() % self.n_queues]
        if queue.try_put(packet):
            self.rx_packets += 1
        else:
            self._drop(packet)

    @property
    def engine_backlog(self) -> float:
        """Seconds of packets queued at the packet engine."""
        return self._engine.backlog

    def depth(self, queue_index: Optional[int] = None) -> int:
        """Occupancy of one queue, or the total across queues."""
        if queue_index is not None:
            return len(self.queues[queue_index])
        return sum(len(queue) for queue in self.queues)
