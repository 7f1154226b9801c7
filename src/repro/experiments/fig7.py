"""Fig 7: MazuNAT throughput vs thread count (NF / FTC / FTMB).

"FTC's throughput is 1.37--1.94x that of FTMB's for 1 to 4 threads ...
FTC incurs 1--10% throughput overhead compared to NF" -- and both NF
and FTC hit the NIC cap at 8 threads, because FTC does not replicate
reads while FTMB logs them.
"""

from __future__ import annotations

from ..chaos.scenario import mbox
from .runner import ExperimentResult, measure, saturation_throughput

THREAD_COUNTS = [1, 2, 4, 8]
SYSTEMS = ["NF", "FTC", "FTMB"]


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 7: MazuNAT throughput (Mpps) vs threads",
        headers=["Threads"] + SYSTEMS + ["FTC/FTMB"])
    for threads in THREAD_COUNTS:
        row = [threads]
        rates = {}
        for system in SYSTEMS:
            rates[system] = measure(saturation_throughput(
                system, (mbox("mazunat", name="nat"),), threads=threads,
                seed=seed)).throughput.rate_mpps()
            row.append(round(rates[system], 2))
        row.append(round(rates["FTC"] / rates["FTMB"], 2))
        result.add(*row)
    result.notes.append(
        "Paper: FTC/FTMB = 1.37-1.94x for 1-4 threads; NF and FTC reach "
        "the NIC cap at 8 threads; FTC within 1-10% of NF.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
