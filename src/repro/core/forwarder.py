"""The forwarder element at the chain ingress (§5).

The forwarder receives incoming packets from the outside world and
piggyback messages fed back from the buffer; it adds the pending state
updates (logs of the last f middleboxes) and commit vectors to
incoming packets before the first replica processes them.  When no
traffic arrives for a while, a timer emits a *propagating packet* so
state keeps flowing (§5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..net.packet import FlowKey, Packet
from ..sim import Simulator
from ..telemetry import NULL_TELEMETRY
from .costs import CostModel, DEFAULT_COSTS
from .piggyback import CommitVector, PiggybackLog, PiggybackMessage

__all__ = ["Forwarder"]

#: Flow key used by propagating packets (never hits a middlebox).
_PROPAGATING_FLOW = FlowKey(0x0A0000FE, 0x0A0000FF, 0, 0, 0)

#: Wire size of a propagating packet before its piggyback message.
_PROPAGATING_SIZE = 64


class Forwarder:
    """Ingress element: merges fed-back state onto incoming packets."""

    def __init__(self, sim: Simulator, inject: Callable[[Packet], None],
                 costs: CostModel = DEFAULT_COSTS, name: str = "forwarder",
                 telemetry=None):
        self.sim = sim
        self.inject = inject  # hands a propagating packet to replica 0
        self.costs = costs
        self.name = name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prof = self.telemetry.profiler
        registry = self.telemetry.registry
        self._m_attached = registry.counter(f"{name}/logs_attached")
        self._m_pending = registry.gauge(f"{name}/pending_logs")
        self._m_propagating = registry.counter(f"{name}/propagating_sent")
        self.pending_logs: List[PiggybackLog] = []
        self.pending_commits: Dict[str, Dict[int, int]] = {}
        #: mboxes whose floor rose since the last attach, in the order
        #: they rose (a set would iterate in PYTHONHASHSEED order).
        self._dirty_commits: Dict[str, None] = {}
        self.last_rx = 0.0
        self.packets_seen = 0
        self.cycles_spent = 0.0
        self.propagating_sent = 0
        self.feedback_received = 0
        #: Config version ingress stamps packets with (PROTOCOL.md §11);
        #: advanced by FTCChain.apply_config on every reconfig switch.
        self.config_epoch = 0
        self._alive = True
        self._timer = sim.process(self._timer_loop(), name=f"{name}/timer")

    # -- feedback ingestion (from the buffer, over the 10 GbE link) ----------

    def absorb_feedback(self, message: PiggybackMessage) -> None:
        self.feedback_received += 1
        for logs in message.logs.values():
            self.pending_logs.extend(logs)
        self._m_pending.set(len(self.pending_logs))
        for mbox, commit in message.commits.items():
            if commit.merge_into(self.pending_commits.setdefault(mbox, {})):
                self._dirty_commits[mbox] = None

    def discard_pending(self) -> None:
        """Drop every pending log and commit (the first server died)."""
        self.pending_logs.clear()
        self.pending_commits.clear()
        self._dirty_commits.clear()
        self._m_pending.set(0)

    # -- per-packet attach (called by replica 0's worker) ----------------------

    def attach(self, message: PiggybackMessage) -> float:
        """Move pending state onto a packet's message; returns CPU cycles."""
        self.packets_seen += 1
        self.last_rx = self.sim.now
        costs = self.costs
        cycles = costs.forwarder_cycles
        pending = self.pending_logs
        if pending:
            self._m_attached.inc(len(pending))
            attach_cycles = costs.piggyback_attach_cycles
            per_byte_cycles = costs.per_state_byte_cycles
            add_log = message.add_log
            for log in pending:
                cycles += (attach_cycles +
                           per_byte_cycles * log.state_bytes(costs))
                add_log(log)
            self.pending_logs = []
        self._m_pending.set(0)
        for mbox in self._dirty_commits:
            message.set_commit(CommitVector(mbox, dict(self.pending_commits[mbox])))
        self._dirty_commits.clear()
        self.cycles_spent += cycles
        if self._prof.enabled:
            self._prof.count("piggyback/append")
        return cycles

    # -- propagating packets (§5.1) -----------------------------------------------

    @property
    def has_pending(self) -> bool:
        return bool(self.pending_logs or self._dirty_commits)

    def stop(self) -> None:
        self._alive = False

    def _timer_loop(self):
        timeout = self.costs.propagation_timeout_s
        while self._alive:
            yield self.sim.timeout(timeout)
            if not self._alive:
                return
            idle = self.sim.now - self.last_rx
            if idle >= timeout and self.has_pending:
                self._send_propagating()

    def _send_propagating(self) -> None:
        packet = Packet(flow=_PROPAGATING_FLOW, size=_PROPAGATING_SIZE,
                        kind="propagating", created_at=self.sim.now)
        message = PiggybackMessage(self.costs)
        self.attach(message)
        packet.attach("ftc", message)
        self.propagating_sent += 1
        self._m_propagating.inc()
        self.inject(packet)
