"""Shared measurement harness for the paper's experiments.

Two measurement styles mirror §7.1's methodology:

* :func:`saturation_throughput` -- offer more load than the system can
  carry (pktgen style) and report the egress rate over a window after
  a warm-up.
* :func:`latency_under_load` -- offer a fixed (Poisson) load below
  saturation and report latency statistics (MoonGen style).

A global ``quick`` flag (set by benchmarks, overridable with the
``REPRO_FULL=1`` environment variable) scales simulated windows so the
whole harness stays runnable on a laptop; the *relative* results are
stable well below the full windows because the simulation is
deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.costs import CostModel, DEFAULT_COSTS
from ..metrics import EgressRecorder, format_table
from ..middlebox.base import Middlebox
from ..net import TrafficGenerator, balanced_flows
from ..sim import RandomStreams, Simulator
from .systems import build_system

__all__ = [
    "ExperimentResult",
    "quick_mode",
    "saturation_throughput",
    "latency_under_load",
    "SATURATING_RATE_PPS",
]

#: Offered load used to saturate systems (comfortably above the NIC cap).
SATURATING_RATE_PPS = 12e6


def quick_mode() -> bool:
    """Quick windows by default; REPRO_FULL=1 requests long windows."""
    return os.environ.get("REPRO_FULL", "0") != "1"


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus render helpers."""

    experiment: str
    headers: List[str]
    rows: List[Sequence] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *row) -> None:
        self.rows.append(row)

    def column(self, name: str) -> List:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text


def _drive(system, sim, rate_pps: float, n_flows: int, packet_size: int,
           arrivals: str, seed: int) -> TrafficGenerator:
    return TrafficGenerator(
        sim, system.ingress, rate_pps=rate_pps,
        flows=balanced_flows(n_flows, system.n_threads),
        packet_size=packet_size, arrivals=arrivals,
        streams=RandomStreams(seed), name=f"gen-{seed}")


def saturation_throughput(kind: str, middleboxes: Callable[[], List[Middlebox]],
                          costs: CostModel = DEFAULT_COSTS,
                          n_threads: int = 8, f: int = 1,
                          rate_pps: float = SATURATING_RATE_PPS,
                          packet_size: int = 256, n_flows: int = 64,
                          warm_s: Optional[float] = None,
                          window_s: Optional[float] = None,
                          seed: int = 0,
                          system_out: Optional[list] = None) -> float:
    """Maximum sustainable throughput (Mpps) under overload."""
    if warm_s is None:
        warm_s = 0.8e-3 if quick_mode() else 5e-3
    if window_s is None:
        window_s = 2e-3 if quick_mode() else 10e-3
    sim = Simulator()
    egress = EgressRecorder(sim)
    system = build_system(kind, sim, middleboxes(), egress, costs=costs,
                          n_threads=n_threads, f=f, seed=seed)
    system.start()
    _drive(system, sim, rate_pps, n_flows, packet_size, "deterministic", seed)
    sim.run(until=warm_s)
    egress.throughput.start_window()
    sim.run(until=warm_s + window_s)
    if system_out is not None:
        system_out.append(system)
    return egress.throughput.rate_mpps()


def latency_under_load(kind: str, middleboxes: Callable[[], List[Middlebox]],
                       rate_pps: float, costs: CostModel = DEFAULT_COSTS,
                       n_threads: int = 8, f: int = 1,
                       packet_size: int = 256, n_flows: int = 64,
                       warm_s: Optional[float] = None,
                       window_s: Optional[float] = None,
                       arrivals: str = "poisson",
                       seed: int = 0) -> EgressRecorder:
    """Latency statistics at a fixed offered load."""
    if warm_s is None:
        warm_s = 0.5e-3 if quick_mode() else 3e-3
    if window_s is None:
        window_s = 2.5e-3 if quick_mode() else 10e-3
    sim = Simulator()
    egress = EgressRecorder(sim)
    system = build_system(kind, sim, middleboxes(), egress, costs=costs,
                          n_threads=n_threads, f=f, seed=seed)
    system.start()
    generator = _drive(system, sim, rate_pps, n_flows, packet_size,
                       arrivals, seed)
    sim.run(until=warm_s)
    egress.latency.start_after(warm_s)
    egress.throughput.start_window()
    sim.run(until=warm_s + window_s)
    generator.stop()
    # Let in-flight packets drain so the sample is complete.
    sim.run(until=warm_s + window_s + 0.5e-3)
    return egress
