"""Shared measurement harness for the paper's experiments.

Two measurement styles mirror §7.1's methodology, each a
:class:`~repro.chaos.scenario.Scenario` factory whose numbers are read
off a checked run (:func:`measure`):

* :func:`saturation_throughput` -- offer more load than the system can
  carry (pktgen style) and report the egress rate over a window after
  a warm-up.
* :func:`latency_under_load` -- offer a fixed (Poisson) load below
  saturation and report latency statistics (MoonGen style).

A global ``quick`` flag (overridable with the ``REPRO_FULL=1``
environment variable) scales simulated windows so the whole harness
stays runnable on a laptop; the *relative* results are stable well
below the full windows because the simulation is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..chaos.scenario import ORACLE_CHECKS, Scenario, run
from ..metrics import EgressRecorder, format_table

__all__ = [
    "ExperimentResult",
    "quick_mode",
    "saturation_throughput",
    "latency_under_load",
    "measure",
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

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text


def _point(system: str, chain, warm_s: float, window_s: float,
           **fields) -> Scenario:
    """§7.1's shape (8 threads, 64 flows), measured over ``window_s``
    after ``warm_s``; ``fields`` override any other Scenario field."""
    return Scenario(**{"threads": 8, "flows": 64, **fields}, system=system,
                    chain=chain, checks=ORACLE_CHECKS, warmup_s=warm_s,
                    duration_s=warm_s + window_s, quiescent=False)


def saturation_throughput(system: str, chain, warm_s: Optional[float] = None,
                          window_s: Optional[float] = None,
                          **fields) -> Scenario:
    """Maximum sustainable throughput: ``system`` over ``chain`` offered
    :data:`SATURATING_RATE_PPS`.  No drain: a saturated queue never
    empties."""
    quick = quick_mode()
    return _point(system, chain, warm_s or (0.8e-3 if quick else 5e-3),
                  window_s or (2e-3 if quick else 10e-3),
                  **{"rate_pps": SATURATING_RATE_PPS, "drain_s": 0.0,
                     **fields})


def latency_under_load(system: str, chain, rate_pps: float,
                       warm_s: Optional[float] = None,
                       window_s: Optional[float] = None,
                       **fields) -> Scenario:
    """Latency statistics at a fixed offered load of Poisson arrivals;
    a 0.5 ms drain lets in-flight packets complete the sample."""
    quick = quick_mode()
    return _point(system, chain, warm_s or (0.5e-3 if quick else 3e-3),
                  window_s or (2.5e-3 if quick else 10e-3),
                  rate_pps=rate_pps,
                  **{"arrivals": "poisson", "drain_s": 0.5e-3, **fields})


def measure(scenario: Scenario) -> EgressRecorder:
    """The egress meters of a clean run of ``scenario``."""
    return run(scenario).checked().egress
