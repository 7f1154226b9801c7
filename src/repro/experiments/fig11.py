"""Fig 11: per-packet latency CDF for Ch-3.

Same setup as Fig 10 at chain length 3: the tail of the distribution
is "only moderately higher than the minimum latency" for FTC --
in-chain replication avoids snapshot-style latency spikes.
"""

from __future__ import annotations

from typing import Dict

from ..chaos.scenario import monitors
from .runner import ExperimentResult, latency_under_load, measure

SYSTEMS = ["NF", "FTC", "FTMB"]
LOAD_PPS = 2e6
PERCENTILES = [1, 25, 50, 75, 90, 99, 99.9]


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 11: Ch-3 per-packet latency CDF (us)",
        headers=["Percentile"] + SYSTEMS)
    samples: Dict[str, object] = {}
    for system in SYSTEMS:
        samples[system] = measure(latency_under_load(
            system, monitors(3, n_threads=1), rate_pps=LOAD_PPS,
            threads=1, seed=seed)).latency
    for q in PERCENTILES:
        result.add(f"p{q}", *[round(samples[s].percentile_us(q), 1)
                              for s in SYSTEMS])
    spread = (samples["FTC"].percentile_us(99) /
              samples["FTC"].percentile_us(1))
    result.notes.append(
        f"FTC p99/p1 spread = {spread:.2f}x (paper: tail only moderately "
        "above the minimum; no snapshot spikes).")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
