"""Fig 10: latency vs chain length (Ch-2 .. Ch-5).

Single-threaded Monitors under a 2 Mpps load (§7.4's setup, forced by
their traffic generator's limits).  "FTC's overhead compared to NF is
within 39--104 us for Ch-2 to Ch-5, translating to roughly 20 us
latency per middlebox.  The overhead of FTMB is within 64--171 us,
approximately 35 us per middlebox."
"""

from __future__ import annotations

from ..chaos.scenario import monitors
from .runner import ExperimentResult, latency_under_load, measure

CHAIN_LENGTHS = [2, 3, 4, 5]
SYSTEMS = ["NF", "FTC", "FTMB"]
LOAD_PPS = 2e6


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 10: latency (us) vs chain length at 2 Mpps",
        headers=["Chain length"] + SYSTEMS +
                ["FTC-NF", "FTMB-NF"])
    for length in CHAIN_LENGTHS:
        row = [length]
        means = {}
        for system in SYSTEMS:
            egress = measure(latency_under_load(
                system, monitors(length, n_threads=1), rate_pps=LOAD_PPS,
                threads=1, seed=seed))
            means[system] = egress.latency.mean_us()
            row.append(round(means[system], 1))
        row.append(round(means["FTC"] - means["NF"], 1))
        row.append(round(means["FTMB"] - means["NF"], 1))
        result.add(*row)
    result.notes.append(
        "Paper: FTC overhead 39-104 us (about 20 us per middlebox); "
        "FTMB overhead 64-171 us (about 35 us per middlebox).")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
