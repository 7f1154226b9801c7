"""Multi-region cloud model (the SAVI testbed of §7.1, §7.5).

The paper's recovery evaluation runs on the SAVI distributed cloud --
several datacenters across Canada -- where WAN round-trip times
dominate recovery delays (Fig 13).  :class:`CloudNetwork` extends the
flat :class:`~repro.net.topology.Network` with named regions, a
configurable inter-region RTT matrix, and WAN-limited control-plane
bandwidth.  Within one region the LAN numbers apply.
"""

from __future__ import annotations

from typing import Dict

from ..net.topology import Network
from ..sim import Simulator

__all__ = ["CloudNetwork", "SAVI_REGIONS", "savi_rtt_matrix"]

#: Region names loosely modelled on SAVI's deployment across Canada.
#: "core" hosts the orchestrator in the paper's setup.
SAVI_REGIONS = ["core", "neighbor", "remote", "far-remote"]


def savi_rtt_matrix() -> Dict[str, Dict[str, float]]:
    """Inter-region RTTs (seconds), shaped after the paper's delays.

    Fig 13's initialization delays (1.2 ms same-region, 5.3 ms
    neighboring, 49.8 ms remote) pin the orchestrator-to-region RTTs;
    its 114--271 ms state-recovery delays pin the inter-region pairs
    used by state fetches.
    """
    base = {
        ("core", "core"): 0.9e-3,
        ("core", "neighbor"): 5.0e-3,
        ("core", "remote"): 49.5e-3,
        ("core", "far-remote"): 80e-3,
        ("neighbor", "neighbor"): 0.9e-3,
        ("neighbor", "remote"): 55e-3,
        ("neighbor", "far-remote"): 85e-3,
        ("remote", "remote"): 0.9e-3,
        ("remote", "far-remote"): 110e-3,
        ("far-remote", "far-remote"): 0.9e-3,
    }
    matrix: Dict[str, Dict[str, float]] = {r: {} for r in SAVI_REGIONS}
    for (a, b), rtt in base.items():
        matrix[a][b] = rtt
        matrix[b][a] = rtt
    return matrix


class CloudNetwork(Network):
    """A Network whose control plane crosses WAN region boundaries."""

    def __init__(self, sim: Simulator, wan_bandwidth_bps: float = 1e9,
                 rtt_jitter_frac: float = 0.15,
                 seed: int = 0, **kwargs):
        super().__init__(sim, **kwargs)
        self.rtt_matrix = savi_rtt_matrix()
        self.control_bandwidth_bps = wan_bandwidth_bps
        self.rtt_jitter_frac = rtt_jitter_frac
        from ..sim import RandomStreams
        self._streams = RandomStreams(seed)

    def place(self, server_name: str, region: str) -> None:
        if region not in self.rtt_matrix:
            raise ValueError(f"unknown region {region!r}")
        self.servers[server_name].region = region

    def region_of(self, server_name: str) -> str:
        region = self.servers[server_name].region
        return region if region is not None else SAVI_REGIONS[0]

    def region_rtt(self, region_a: str, region_b: str) -> float:
        return self.rtt_matrix[region_a][region_b]

    def control_rtt(self, src: str, dst: str) -> float:
        """WAN RTT between the servers' regions, with jitter.

        The paper's wide confidence intervals (§7.5: "due to latency
        variability in the wide area network") motivate the jitter.
        """
        if src == dst:
            return 0.0
        base = self.region_rtt(self.region_of(src), self.region_of(dst))
        if base <= 2e-3 or self.rtt_jitter_frac <= 0:
            return base
        return self._streams.gauss_clamped(
            "wan-rtt", base, base * self.rtt_jitter_frac, minimum=base * 0.5)
