"""The skeleton every comparison chain shares (§7.1).

A baseline chain is a list of *stages* in packet order: a server and
the step its workers run on each packet, each middlebox the same
number of stages.  One worker per NIC queue per stage pulls packets
and runs the step; a packet a step returns goes on to the next stage
(over the network), or is released after the last one.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..core.costs import CostModel
from ..core.depvec import ReplicationState
from ..core.runtime import MiddleboxRuntime
from ..middlebox.base import Middlebox
from ..net.packet import Packet
from ..net.topology import Network, Server
from ..sim import CancelledError, Interrupt, RandomStreams, Simulator

__all__ = ["BaselineChain"]


class BaselineChain:
    """Servers, workers and egress of a chain without FTC's machinery."""

    def __init__(self, sim: Simulator, middleboxes: Sequence[Middlebox],
                 deliver: Callable[[Packet], None], costs: CostModel,
                 net: Optional[Network], n_threads: int, seed: int,
                 name: str):
        if not middleboxes:
            raise ValueError("a chain needs at least one middlebox")
        self.sim = sim
        self.middleboxes = list(middleboxes)
        self.deliver = deliver
        self.costs = costs
        self.n_threads = n_threads
        self.name = name
        self.streams = RandomStreams(seed)
        self.net = net or Network(sim, hop_delay_s=costs.hop_delay_s,
                                  bandwidth_bps=costs.bandwidth_bps)
        #: (server, step) in packet order; ``step(thread_id, packet)`` is
        #: a generator returning the packet to pass on, or None.
        self.stages: List[Tuple[Server, Callable]] = []
        self.released = 0
        self.packets_in = 0

    def _server(self, label: str) -> Server:
        """A server sized by the cost model: one NIC queue per thread."""
        costs = self.costs
        return self.net.add_server(
            f"{self.name}-{label}", n_cores=self.n_threads,
            cpu_hz=costs.cpu_hz, nic_pps=costs.nic_pps,
            nic_queues=self.n_threads, nic_queue_depth=costs.nic_queue_depth)

    def _runtime(self, mbox: Middlebox, **options) -> MiddleboxRuntime:
        """Transactional processing of ``mbox`` with no replication."""
        state = ReplicationState(mbox.name, self.costs.n_partitions)
        return MiddleboxRuntime(self.sim, mbox, state, costs=self.costs,
                                streams=self.streams, replicate=False,
                                **options)

    def _touch(self, packet: Packet, cycles: float = 0.0):
        """Timeout for ``cycles`` plus handling the packet's bytes."""
        costs = self.costs
        return self.sim.timeout(costs.cycles_to_seconds(
            cycles + costs.per_wire_byte_cycles * packet.wire_size))

    def start(self) -> None:
        """One worker per NIC queue per stage, spawned middlebox by
        middlebox, then thread by thread, then stage by stage."""
        width = len(self.stages) // len(self.middleboxes)
        for first in range(0, len(self.stages), width):
            for tid in range(self.n_threads):
                for hop in range(first, first + width):
                    self.sim.process(
                        self._worker(hop, tid),
                        name=f"{self.stages[hop][0].name}/w{tid}")

    def ingress(self, packet: Packet) -> None:
        if packet.created_at == 0.0:
            packet.created_at = self.sim.now
        self.packets_in += 1
        self.net.deliver_external(self.stages[0][0].name, packet)

    def total_released(self) -> int:
        return self.released

    def _worker(self, hop: int, thread_id: int):
        server, step = self.stages[hop]
        queue = server.nic.queues[thread_id]
        following = (self.stages[hop + 1][0].name
                     if hop + 1 < len(self.stages) else None)
        try:
            while True:
                packet = yield queue.get()
                out = yield from step(thread_id, packet)
                if out is None:
                    continue
                if following is None:
                    self.released += 1
                    self.deliver(out)
                else:
                    self.net.send(server.name, following, out)
        except (Interrupt, CancelledError):
            return
