"""Fig 9: throughput vs chain length (Ch-2 .. Ch-5).

"Monitors in these chains run eight threads with sharing level 1. ...
FTC's throughput is within 8.28--8.92 Mpps and 4.83--4.80 Mpps for
FTMB.  FTC imposes a 6--13% throughput overhead compared to NF.  The
throughput drop from increasing the chain length for FTC is within
2--7%, while that of FTMB+Snapshot is 13--39%."

FTMB+Snapshot adds a 6 ms stall every 50 ms per middlebox (§7.4).  In
quick mode the snapshot period/stall and NIC ring are scaled down
together (x10) so a laptop-sized window spans several snapshot
periods; the stall *fraction* -- which sets the throughput shape -- is
unchanged.
"""

from __future__ import annotations

from ..chaos.scenario import monitors
from ..core.costs import DEFAULT_COSTS
from .runner import (ExperimentResult, measure, quick_mode,
                     saturation_throughput)

CHAIN_LENGTHS = [2, 3, 4, 5]
SYSTEMS = ["NF", "FTC", "FTMB", "FTMB+Snapshot"]


def _fields_for(system: str):
    """FTMB+Snapshot's costs and a window spanning several periods."""
    if system != "FTMB+Snapshot":
        return {}
    costs = DEFAULT_COSTS.with_overrides(
        snapshot_period_s=5e-3, snapshot_stall_s=0.6e-3,
        nic_queue_depth=128) if quick_mode() else DEFAULT_COSTS
    return dict(costs=costs, warm_s=1e-3, window_s=3 * costs.snapshot_period_s)


def run(n_threads: int = 8, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 9: throughput (Mpps) vs chain length",
        headers=["Chain length"] + SYSTEMS + ["FTC/FTMB"])
    for length in CHAIN_LENGTHS:
        row = [length]
        rates = {}
        for system in SYSTEMS:
            rates[system] = measure(saturation_throughput(
                system, monitors(length, n_threads=n_threads),
                threads=n_threads, seed=seed,
                **_fields_for(system))).throughput.rate_mpps()
            row.append(round(rates[system], 2))
        row.append(round(rates["FTC"] / rates["FTMB"], 2))
        result.add(*row)
    result.notes.append(
        "Paper: FTC 8.28-8.92, FTMB ~4.8, FTC = 2-3.5x FTMB; "
        "FTMB+Snapshot drops 13-39% with chain length.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
