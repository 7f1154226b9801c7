"""Flow-churn traffic: connections arrive, live, and depart.

Constant flow pools exercise a NAT/firewall's steady state; churn
exercises allocation, eviction, and state-store growth -- the traffic
shape enterprise chains actually see.  Flows arrive as a Poisson
process, send packets at a per-flow rate for an exponentially
distributed lifetime, then stop.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..sim import RandomStreams, Simulator
from .packet import FlowKey, Packet, ip

__all__ = ["FlowChurnGenerator"]


class FlowChurnGenerator:
    """Poisson flow arrivals; each flow is a finite packet train."""

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 flow_arrival_rate: float = 1000.0,
                 flow_lifetime_s: float = 0.01,
                 per_flow_pps: float = 10_000.0,
                 packet_size: int = 256,
                 dst: str = "192.168.0.1",
                 streams: Optional[RandomStreams] = None,
                 name: str = "churn"):
        if min(flow_arrival_rate, flow_lifetime_s, per_flow_pps) <= 0:
            raise ValueError("rates and lifetime must be positive")
        self.sim = sim
        self.sink = sink
        self.flow_arrival_rate = flow_arrival_rate
        self.flow_lifetime_s = flow_lifetime_s
        self.per_flow_pps = per_flow_pps
        self.packet_size = packet_size
        self.dst_ip = ip(dst)
        self.streams = streams or RandomStreams(0)
        self.name = name
        self.flows_started = 0
        self.flows_finished = 0
        self.packets_sent = 0
        self.active_flows = 0
        self._flow_ids = itertools.count()
        self._stopped = False
        self._process = sim.process(self._arrivals(), name=name)

    def stop(self) -> None:
        self._stopped = True

    @property
    def offered_pps(self) -> float:
        """Long-run average offered load."""
        return (self.flow_arrival_rate * self.flow_lifetime_s *
                self.per_flow_pps)

    def _arrivals(self):
        while not self._stopped:
            yield self.sim.timeout(self.streams.exponential(
                f"{self.name}/arrivals", 1.0 / self.flow_arrival_rate))
            if self._stopped:
                return
            flow_id = next(self._flow_ids)
            self.sim.process(self._flow(flow_id),
                             name=f"{self.name}/flow{flow_id}")

    def _flow(self, flow_id: int):
        self.flows_started += 1
        self.active_flows += 1
        src_ip = ip("10.2.0.0") + 1 + (flow_id >> 14)
        flow = FlowKey(src_ip, self.dst_ip,
                       1024 + (flow_id & 0x3FFF), 80)
        lifetime = self.streams.exponential(
            f"{self.name}/lifetime", self.flow_lifetime_s)
        deadline = self.sim.now + lifetime
        while self.sim.now < deadline and not self._stopped:
            yield self.sim.timeout(self.streams.exponential(
                f"{self.name}/pkts", 1.0 / self.per_flow_pps))
            if self._stopped:
                break
            packet = Packet(flow=flow, size=self.packet_size,
                            created_at=self.sim.now)
            self.packets_sent += 1
            self.sink(packet)
        self.active_flows -= 1
        self.flows_finished += 1
