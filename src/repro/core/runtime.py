"""Middlebox runtime at the head replica (§4).

The runtime executes a middlebox's packet transaction through the STM,
stamps the head's dependency vector atomically with the commit, emits
the piggyback log, and charges the calibrated cycle costs.  It also
keeps the per-component cycle counters that Table 2's benchmark reads
back out.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..middlebox.base import Middlebox
from ..net.packet import Packet
from ..sim import RandomStreams, Simulator, Timeout
from ..stm.partition import PartitionSpace
from ..stm.transaction import TransactionContext, TransactionManager
from ..telemetry import NULL_TELEMETRY
from .costs import CostModel, DEFAULT_COSTS
from .depvec import DependencyVector, ReplicationState
from .piggyback import PiggybackLog, value_bytes

__all__ = ["MiddleboxRuntime", "CycleCounters"]


class CycleCounters:
    """Per-component CPU accounting (the Table 2 breakdown)."""

    __slots__ = ("processing", "locking", "piggyback_copy", "forwarder",
                 "buffer", "packets")

    def __init__(self):
        self.processing = 0.0
        self.locking = 0.0
        self.piggyback_copy = 0.0
        self.forwarder = 0.0
        self.buffer = 0.0
        self.packets = 0

    def per_packet(self, component: str) -> float:
        if self.packets == 0:
            return 0.0
        return getattr(self, component) / self.packets


class MiddleboxRuntime:
    """Transactional execution of one middlebox on its head server."""

    def __init__(self, sim: Simulator, middlebox: Middlebox,
                 own_state: ReplicationState,
                 costs: CostModel = DEFAULT_COSTS,
                 streams: Optional[RandomStreams] = None,
                 replicate: bool = True,
                 extra_critical_cycles: float = 0.0,
                 use_htm: bool = False, telemetry=None):
        self.sim = sim
        self.middlebox = middlebox
        self.state = own_state
        self.costs = costs
        self.streams = streams or RandomStreams(0)
        self.replicate = replicate
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Extra work inside the critical section (FTMB charges its
        #: in-lock PAL logging here; zero for FTC and NF).
        self.extra_critical_cycles = extra_critical_cycles
        #: Hybrid transactional memory (§3.2): elide locks when the
        #: hardware transaction would not conflict.
        self.use_htm = use_htm
        self.partitions = PartitionSpace(costs.n_partitions)
        self.manager = TransactionManager(
            sim, own_state.store, self.partitions,
            name=f"stm/{middlebox.name}",
            handoff_delay_s=costs.cycles_to_seconds(costs.lock_wakeup_cycles),
            spin_threshold=costs.lock_spin_threshold,
            htm=use_htm, telemetry=self.telemetry)
        self.depvec = DependencyVector(costs.n_partitions)
        self.counters = CycleCounters()
        self.transactions = 0
        #: This middlebox's cycle-jitter stream, looked up once (streams
        #: are seeded by name, so when it is first touched is immaterial).
        self._gauss = self.streams.stream(f"cycles/{middlebox.name}").gauss

    # -- execution ----------------------------------------------------------------

    def process(self, packet: Packet, thread_id: int,
                want_result: bool = False):
        """Generator: run the packet transaction.

        Returns ``(verdict, piggyback_log_or_None)`` -- or, with
        ``want_result``, ``(verdict, log, TransactionResult)`` so
        callers like FTMB can inspect the access set.  Read-only
        transactions yield a no-op log; stateless middleboxes skip the
        STM entirely (and produce no log).

        Cycle costs are jittered in a fixed draw order (processing,
        locking, then -- in ``_commit_hold`` -- the log copy) and
        converted by the same division ``cycles_to_seconds`` does.
        """
        self.transactions += 1
        counters = self.counters
        counters.packets += 1
        costs = self.costs
        middlebox = self.middlebox
        cpu_hz = costs.cpu_hz
        jitter = costs.cycle_jitter_frac
        processing = middlebox.processing_cycles
        if processing is None:
            processing = costs.processing_cycles
        if jitter > 0:
            processing = max(processing * 0.5,
                             self._gauss(processing, processing * jitter))
        counters.processing += processing
        if middlebox.stateless:
            yield Timeout(self.sim, processing / cpu_hz)
            verdict = middlebox.process(
                packet, TransactionContext(self.state.store, packet.flow,
                                           thread_id, self.sim.now))
            if want_result:
                return verdict, None, None
            return verdict, None

        locking = costs.locking_cycles
        if jitter > 0:
            locking = max(locking * 0.5,
                          self._gauss(locking, locking * jitter))
        pid = packet.pid
        result = yield from self.manager.run(
            partial(middlebox.process, packet),
            (processing + self.extra_critical_cycles) / cpu_hz,
            packet.flow, thread_id, partial(self._on_commit, pid),
            self._commit_hold, locking / cpu_hz,
            costs.htm_commit_cycles / cpu_hz, pid)
        counters.locking += (costs.htm_commit_cycles
                             if result.used_htm else locking)

        if want_result:
            return result.value, result.commit_value, result
        return result.value, result.commit_value

    def _commit_hold(self, ctx: TransactionContext) -> float:
        """Seconds spent building the piggyback log under the locks."""
        writes = ctx.writes
        if not self.replicate or not writes:
            return 0.0
        costs = self.costs
        state_bytes = 0
        for value in writes.values():
            state_bytes += value_bytes(value, costs)
        copy_cycles = (costs.piggyback_copy_cycles +
                       costs.per_state_byte_cycles * state_bytes)
        jitter = costs.cycle_jitter_frac
        if jitter > 0:
            copy_cycles = max(copy_cycles * 0.5,
                              self._gauss(copy_cycles, copy_cycles * jitter))
        self.counters.piggyback_copy += copy_cycles
        return copy_cycles / costs.cpu_hz

    def _on_commit(self, pid: int, ctx: TransactionContext,
                   touched) -> Optional[PiggybackLog]:
        """Stamp the dependency vector and emit packet ``pid``'s log."""
        if not self.replicate:
            return None
        if not ctx.writes:
            return PiggybackLog(self.middlebox.name, packet_id=pid)
        vec = self.depvec.stamp(sorted(touched))
        log = PiggybackLog(self.middlebox.name, vec, ctx.writes, pid)
        # The head is also the first of the f+1 replicas: account the
        # log locally so pruning/recovery see it.
        self.state.record_local(log)
        if self.telemetry.enabled:
            self.telemetry.emit("piggyback", "append", t=self.sim.now,
                                pid=pid, depvec=vec, mbox=self.middlebox.name,
                                updates=len(ctx.writes))
        return log
