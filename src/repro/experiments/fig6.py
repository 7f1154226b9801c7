"""Fig 6: Monitor throughput vs sharing level (NF / FTC / FTMB).

"We configure Monitor to run with eight threads and measure its
throughput with different sharing levels. ... For sharing levels of 8
and 2, FTC achieves a throughput that is 1.2x and 1.4x that of FTMB's"
-- and NF/FTC hit the NIC's packet processing capacity at sharing 1.
"""

from __future__ import annotations

from ..chaos.scenario import mbox
from .runner import ExperimentResult, measure, saturation_throughput

SHARING_LEVELS = [1, 2, 4, 8]
SYSTEMS = ["NF", "FTC", "FTMB"]


def run(n_threads: int = 8, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 6: Monitor throughput (Mpps) vs sharing level",
        headers=["Sharing level"] + SYSTEMS + ["FTC/FTMB"])
    for sharing in SHARING_LEVELS:
        row = [sharing]
        rates = {}
        for system in SYSTEMS:
            rates[system] = measure(saturation_throughput(
                system, (mbox("monitor", name="mon", sharing_level=sharing,
                              n_threads=n_threads),),
                threads=n_threads, seed=seed)).throughput.rate_mpps()
            row.append(round(rates[system], 2))
        row.append(round(rates["FTC"] / rates["FTMB"], 2))
        result.add(*row)
    result.notes.append(
        "Paper: FTC/FTMB = 1.2x at sharing 8, 1.4x at sharing 2; NF and "
        "FTC reach the NIC cap at sharing 1; FTMB is PAL-capped at "
        "~5.26 Mpps.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
