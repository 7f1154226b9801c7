"""Remote-datastore baseline (StatelessNF / CHC style, §2.2).

The second class of existing approaches "redesigns middleboxes to
separate and push state into a fault tolerant backend data store",
paying at least a round trip per state access and an acknowledged
write before packet release.  The paper cites ~60% throughput drops
for this design; we include it for the §2.2 comparison and the design
ablations, not for any specific figure.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

from ..core.costs import CostModel, DEFAULT_COSTS
from ..middlebox.base import DROP, Middlebox
from ..net.packet import Packet
from ..net.topology import Network
from ..sim import Simulator
from ..stm.store import StateStore
from ..stm.transaction import TransactionContext
from .base import BaselineChain

__all__ = ["RemoteStoreChain"]

#: Datastore-side service cost per operation (get/put on a kv store).
STORE_OP_CYCLES = 400.0


class RemoteStoreChain(BaselineChain):
    """Stateless middleboxes + a replicated remote state store."""

    def __init__(self, sim: Simulator, middleboxes: Sequence[Middlebox],
                 deliver: Callable[[Packet], None] = lambda p: None,
                 costs: CostModel = DEFAULT_COSTS,
                 net: Optional[Network] = None, n_threads: int = 8,
                 seed: int = 0, name: str = "rstore"):
        super().__init__(sim, middleboxes, deliver, costs, net, n_threads,
                         seed, name)
        self.stores: List[StateStore] = []
        for index, mbox in enumerate(self.middleboxes):
            server = self._server(f"s{index}")
            self.stores.append(StateStore(mbox.name))
            self.stages.append((server, partial(self._step, index)))
        self.datastore = self._server("ds")
        servers = [server for server, _ in self.stages]
        for a, b in zip(servers, servers[1:]):
            self.net.connect(a.name, b.name)
        for server in servers:
            self.net.connect(server.name, self.datastore.name)
            self.net.connect(self.datastore.name, server.name)
        self.store_round_trips = 0

    def _step(self, index: int, thread_id: int, packet: Packet):
        store = self.stores[index]
        yield self._touch(packet, self.costs.processing_cycles)
        ctx = TransactionContext(store, flow=packet.flow,
                                 thread_id=thread_id, now=self.sim.now)
        verdict = self.middleboxes[index].process(packet, ctx)
        for _ in range(len(ctx.reads) + len(ctx.writes)):
            # Each state access is a synchronous round trip to the
            # datastore; writes are acked before release.
            self.store_round_trips += 1
            yield self.net.control_call(
                self.stages[index][0].name, self.datastore.name,
                lambda: None, payload_bytes=64, response_bytes=64)
            yield self.sim.timeout(self.costs.cycles_to_seconds(
                STORE_OP_CYCLES))
        store.apply_many(ctx.writes)
        if verdict is not DROP:
            return verdict if isinstance(verdict, Packet) else packet
