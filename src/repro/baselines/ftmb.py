"""FTMB baseline: our re-implementation of Rollback-Recovery for
Middleboxes [51], as the paper's evaluation builds it (§7.1).

Per middlebox, FTMB dedicates the middlebox server (master, M) plus a
logger server hosting the input logger (IL) and output logger (OL) on
its two NICs.  Packets traverse IL -> M -> OL.  M records packet
access logs (PALs) for every shared-state access -- reads included --
and transmits them to OL in separate messages; OL releases a data
packet only once its PAL has arrived.

Following the paper's prototype simplifications: PALs are assumed
delivered on the first attempt, OL keeps only the latest PALs, and no
snapshots are taken (making this an upper bound on FTMB performance).
:class:`FTMBChain` with ``snapshots=True`` adds §7.4's
FTMB+Snapshot behaviour: every ``snapshot_period`` each master stalls
for ``snapshot_stall`` while a consistent snapshot is captured.

The famous consequence of per-packet PAL messages: the OL NIC's packet
engine handles two messages per data packet, halving the sustainable
rate to ~5.26 Mpps (§7.3) -- in this model that ceiling *emerges* from
the shared NIC rate limiter rather than being hard-coded.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..core.costs import CostModel, DEFAULT_COSTS
from ..middlebox.base import DROP, Middlebox
from ..net.packet import Packet
from ..net.topology import Network
from ..sim import Simulator
from .base import BaselineChain

__all__ = ["FTMBChain"]

#: Cycles the IL/OL spend per message (receive, log, forward).
LOGGER_CYCLES = 120.0

#: Wire size of one PAL message (header + a few access records).
PAL_BASE_BYTES = 64
PAL_ENTRY_BYTES = 16


class _PALTracker:
    """OL-side bookkeeping: hold data packets until their PAL arrives."""

    def __init__(self):
        self.seen: set = set()
        self.waiting: Dict[int, Packet] = {}

    def pal_arrived(self, pid: int) -> Optional[Packet]:
        self.seen.add(pid)
        return self.waiting.pop(pid, None)

    def data_arrived(self, packet: Packet) -> bool:
        """True if the packet may be forwarded immediately."""
        if packet.pid in self.seen:
            self.seen.discard(packet.pid)  # "only the last PAL" kept
            return True
        self.waiting[packet.pid] = packet
        return False


class FTMBChain(BaselineChain):
    """A chain of FTMB-protected middleboxes (IL -> M -> OL each)."""

    def __init__(self, sim: Simulator, middleboxes: Sequence[Middlebox],
                 deliver: Callable[[Packet], None] = lambda p: None,
                 costs: CostModel = DEFAULT_COSTS,
                 net: Optional[Network] = None, n_threads: int = 8,
                 seed: int = 0, snapshots: bool = False, name: str = "ftmb"):
        super().__init__(sim, middleboxes, deliver, costs, net, n_threads,
                         seed, name)
        self.snapshots = snapshots
        self.runtimes = []
        self.trackers: List[List[_PALTracker]] = []
        self.pals_sent = 0
        self._snapshot_offset: List[float] = []
        for index, mbox in enumerate(self.middleboxes):
            il = self._server(f"il{index}")
            master = self._server(f"m{index}")
            ol = self._server(f"ol{index}")
            self.runtimes.append(self._runtime(
                mbox, extra_critical_cycles=costs.ftmb_pal_crit_cycles))
            self.trackers.append([_PALTracker() for _ in range(n_threads)])
            self.net.connect(il.name, master.name)
            self.net.connect(master.name, ol.name)
            if index > 0:
                self.net.connect(self.stages[-1][0].name, il.name)
            self.stages += [(il, self._log_in),
                            (master, partial(self._master, index,
                                             master.name, ol.name)),
                            (ol, partial(self._log_out, index))]
            # Stagger snapshot phases across masters (§7.4: snapshots at
            # different middleboxes do not align).
            self._snapshot_offset.append(self.streams.uniform(
                f"snapshot-offset/{index}", 0.0, costs.snapshot_period_s))

    def _log_in(self, thread_id: int, packet: Packet):
        """Input logger: record the packet, pass it to the master."""
        yield self._touch(packet, LOGGER_CYCLES)
        return packet

    def _master(self, index: int, master: str, ol: str, thread_id: int,
                packet: Packet):
        """The middlebox master: process, emit PALs, pass on to OL."""
        if self.snapshots:
            # FTMB+Snapshot (§7.4): windows of ``snapshot_stall_s`` every
            # ``snapshot_period_s``; a thread entering processing during
            # one waits until it closes.
            phase = ((self.sim.now - self._snapshot_offset[index]) %
                     self.costs.snapshot_period_s)
            if phase < self.costs.snapshot_stall_s:
                yield self.sim.timeout(self.costs.snapshot_stall_s - phase)
        yield self._touch(packet)
        verdict, _log, result = yield from self.runtimes[index].process(
            packet, thread_id, want_result=True)
        if verdict is DROP:
            return
        out = verdict if isinstance(verdict, Packet) else packet
        # One PAL message per packet that touched shared state (reads
        # included -- FTMB logs them, §7.3); stateless middleboxes and
        # packets that touched nothing need none.
        accesses = (len(result.read_keys | set(result.writes))
                    if result is not None else 0)
        if not accesses:
            out.meta["no_pal"] = True
            return out
        yield self.sim.timeout(self.costs.cycles_to_seconds(
            self.costs.ftmb_pal_tx_cycles))
        pal = Packet(flow=out.flow,
                     size=PAL_BASE_BYTES + PAL_ENTRY_BYTES * accesses,
                     kind="pal", created_at=self.sim.now)
        pal.meta["pal_for"] = out.pid
        pal.meta["mbox_index"] = index
        self.pals_sent += 1
        self.net.send(master, ol, pal)
        return out

    def _log_out(self, index: int, thread_id: int, packet: Packet):
        """Output logger: release data only after its PAL arrived."""
        yield self._touch(packet, LOGGER_CYCLES)
        tracker = self.trackers[index][thread_id]
        if packet.kind == "pal":
            return tracker.pal_arrived(packet.meta["pal_for"])
        if packet.meta.pop("no_pal", None) or tracker.data_arrived(packet):
            return packet
