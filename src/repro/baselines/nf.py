"""NF: the non-fault-tolerant baseline chain (§7.1).

One server per middlebox, transactional packet processing for thread
safety (real multithreaded middleboxes lock shared state too -- NF
pays Table 2's processing + locking costs), but no replication, no
piggybacking, no forwarder/buffer.  This is the performance ceiling
FTC is compared against in every figure.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

from ..core.costs import CostModel, DEFAULT_COSTS
from ..middlebox.base import DROP, Middlebox
from ..net.packet import Packet
from ..net.topology import Network
from ..sim import Simulator
from .base import BaselineChain

__all__ = ["NFChain"]


class NFChain(BaselineChain):
    """A plain service function chain without fault tolerance."""

    def __init__(self, sim: Simulator, middleboxes: Sequence[Middlebox],
                 deliver: Callable[[Packet], None] = lambda p: None,
                 costs: CostModel = DEFAULT_COSTS,
                 net: Optional[Network] = None, n_threads: int = 8,
                 seed: int = 0, name: str = "nf"):
        super().__init__(sim, middleboxes, deliver, costs, net, n_threads,
                         seed, name)
        self.runtimes = []
        for index, mbox in enumerate(self.middleboxes):
            server = self._server(f"s{index}")
            self.runtimes.append(self._runtime(mbox))
            self.stages.append((server, partial(self._step, index)))
        for (a, _), (b, _) in zip(self.stages, self.stages[1:]):
            self.net.connect(a.name, b.name)

    def store_of(self, index: int):
        return self.runtimes[index].state.store

    def _step(self, index: int, thread_id: int, packet: Packet):
        yield self._touch(packet)
        verdict, _log = yield from self.runtimes[index].process(
            packet, thread_id)
        if verdict is not DROP:
            return verdict if isinstance(verdict, Packet) else packet
