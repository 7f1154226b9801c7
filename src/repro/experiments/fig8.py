"""Fig 8: per-packet latency vs offered load.

Three panels: (a) Monitor with 8 threads and sharing level 8,
(b) MazuNAT with 1 thread, (c) MazuNAT with 8 threads.  Latency stays
flat until each system's saturation point, then spikes as queues fill;
FTC's added latency is tens of microseconds (§7.3).
"""

from __future__ import annotations

from typing import List

from ..chaos.scenario import mbox
from .runner import ExperimentResult, latency_under_load, measure

SYSTEMS = ["NF", "FTC", "FTMB"]

#: Offered loads (Mpps) per panel, as in the paper's x-axes.
LOADS_A = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
LOADS_B = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
LOADS_C = [1, 2, 3, 4, 5, 6, 7, 8, 9]


def _panel(name: str, chain, loads: List[float],
           n_threads: int, seed: int) -> ExperimentResult:
    result = ExperimentResult(
        experiment=name,
        headers=["Load (Mpps)"] + [f"{s} (us)" for s in SYSTEMS])
    for load in loads:
        row = [load]
        for system in SYSTEMS:
            egress = measure(latency_under_load(
                system, chain, rate_pps=load * 1e6, threads=n_threads,
                seed=seed))
            row.append(round(egress.latency.mean_us(), 1)
                       if len(egress.latency) else float("nan"))
        result.add(*row)
    return result


def run_panel_a(seed: int = 0) -> ExperimentResult:
    return _panel(
        "Figure 8a: Monitor (8 threads, sharing level 8) latency vs load",
        (mbox("monitor", name="mon", sharing_level=8, n_threads=8),),
        LOADS_A, n_threads=8, seed=seed)


def run_panel_b(seed: int = 0) -> ExperimentResult:
    return _panel(
        "Figure 8b: MazuNAT (1 thread) latency vs load",
        (mbox("mazunat", name="nat"),), LOADS_B, n_threads=1, seed=seed)


def run_panel_c(seed: int = 0) -> ExperimentResult:
    return _panel(
        "Figure 8c: MazuNAT (8 threads) latency vs load",
        (mbox("mazunat", name="nat"),), LOADS_C, n_threads=8, seed=seed)


def run(seed: int = 0) -> List[ExperimentResult]:
    return [run_panel_a(seed), run_panel_b(seed), run_panel_c(seed)]


def main() -> None:
    print("\n\n".join(panel.render() for panel in run()))


if __name__ == "__main__":
    main()
