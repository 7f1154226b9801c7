"""Table 2: per-packet CPU-cycle breakdown for MazuNAT in Ch-2.

"To benchmark FTC, we breakdown the performance of the MazuNAT
middlebox configured with eight threads in a chain of length two ...
The results only show the computational overhead and exclude device
and network IO."
"""

from __future__ import annotations

from ..chaos.scenario import ORACLE_CHECKS, Scenario, mbox
from ..chaos.scenario import run as run_scenario
from .runner import ExperimentResult, quick_mode

#: Paper-reported cycles (mean, +/-).
PAPER = {
    "Packet processing": (355, 12),
    "Locking": (152, 11),
    "Copying piggybacked state": (58, 6),
    "Forwarder": (8, 2),
    "Buffer": (100, 4),
}


def run(n_threads: int = 8, seed: int = 0) -> ExperimentResult:
    count = 5_000 if quick_mode() else 50_000
    # Traffic stops half an interarrival past the count-th packet, so
    # drift in the accumulated arrival clock cannot cut the last one.
    chain = run_scenario(Scenario(
        # The second NAT's inside is the first one's outside.
        chain=(mbox("mazunat", name="mazunat1"),
               mbox("mazunat", name="mazunat2", external_ip="203.0.113.9",
                    internal_prefix="203.0.113.")),
        duration_s=(count + 0.5) / 2e6, drain_s=1e-3, threads=n_threads,
        flows=64, rate_pps=2e6, seed=seed,
        checks=ORACLE_CHECKS + ("egress-loss",))).checked().chain
    runtime = chain.replica_at(0).runtime
    counters = runtime.counters
    # Piggyback copy cycles are only spent on writing transactions
    # (MazuNAT's first packet per flow); Table 2 reports the per-packet
    # average over the measured stream.
    measured = {
        "Packet processing": counters.per_packet("processing"),
        "Locking": counters.per_packet("locking"),
        "Copying piggybacked state": (counters.piggyback_copy /
                                      max(1, runtime.state.applied)),
        "Forwarder": (chain.forwarder.cycles_spent /
                      max(1, chain.forwarder.packets_seen)),
        "Buffer": (chain.buffer.cycles_spent /
                   max(1, chain.buffer.packets_seen)),
    }

    result = ExperimentResult(
        experiment="Table 2: CPU cycles per packet (MazuNAT, chain of 2)",
        headers=["Component", "Paper (cycles)", "Measured (cycles)"])
    for component, (mean, pm) in PAPER.items():
        result.add(component, f"{mean} +/- {pm}",
                   round(measured[component], 1))
    result.notes.append(
        "Copy cost is reported per piggyback log constructed; MazuNAT "
        "only writes state on a flow's first packet, so per-packet "
        "averaging over all traffic would dilute it.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
