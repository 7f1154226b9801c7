"""Intrusion detection middlebox with shared counters.

§2 cites "port-counts in an intrusion detection system" as the
canonical *shared* state variable: every thread updates the same
counters, making this the cross-thread contention workload (alongside
Monitor's sharing levels).  The detector keeps global per-destination-
port hit counts and flags ports whose rate of distinct sources exceeds
a threshold (a horizontal-scan heuristic).
"""

from __future__ import annotations

from ..net.packet import Packet
from ..stm.transaction import TransactionContext
from .base import DROP, Middlebox, PASS, Verdict

__all__ = ["PortCountIDS"]


class PortCountIDS(Middlebox):
    """Shared port-count IDS: counts hits and flags hot ports."""

    def __init__(self, name: str = "ids", alert_threshold: int = 1000,
                 drop_on_alert: bool = False, watched_ports=(22, 23, 3389),
                 processing_cycles=None):
        super().__init__(name, processing_cycles)
        self.alert_threshold = alert_threshold
        self.drop_on_alert = drop_on_alert
        self.watched_ports = frozenset(watched_ports)

    def process(self, packet: Packet, ctx: TransactionContext) -> Verdict:
        self.count_packet(ctx)
        port = packet.flow.dst_port
        if port not in self.watched_ports:
            return PASS
        count_key = ("port-count", port)
        count = ctx.read(count_key, 0) + 1
        ctx.write(count_key, count)
        if count == self.alert_threshold:
            ctx.write(("alert", port), True)
        if self.drop_on_alert and ctx.read(("alert", port)):
            self.count_drop(ctx)
            return DROP
        return PASS

    def describe(self) -> str:
        return (f"PortCountIDS: shared counters on "
                f"{sorted(self.watched_ports)}, alert at "
                f"{self.alert_threshold}")
