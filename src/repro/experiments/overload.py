"""Overload sweep: goodput/latency/shedding vs offered load (§12).

Not a paper figure -- the testbed never pushed past NIC saturation --
but the operative question for any production SFC deployment: what
happens when offered load exceeds what the chain can sustain?  Each
row drives a heavy-tailed prioritized workload at a multiple of the
chain's sustainable capacity through the full overload stack
(admission control + backpressure bus + SLO-driven brownout) and
reports where the excess went: egress goodput holds near capacity,
the ingress gate sheds the rest lowest-class-first, latency stays
bounded, and nothing is dropped inside the chain.
"""

from __future__ import annotations

from ..chaos.scenario import Scenario, monitors, run as run_scenario
from ..chaos.soak import (OVERLOAD_BUDGET, OVERLOAD_CAPACITY_PPS,
                          OVERLOAD_COSTS, OVERLOAD_P99_US)
from ..net.flowgen import WorkloadSpec
from .runner import ExperimentResult, quick_mode

#: Offered load as multiples of sustainable capacity (full mode).
LOAD_MULTIPLIERS = [0.5, 1.0, 2.0, 4.0, 8.0]

#: The table reads its columns this long after load stops; the run
#: itself drains on until brownout has walked back to level 0, which
#: the final audit holds it to.
OBSERVE_S = 20e-3


def point(multiplier: float, duration_s: float, seed: int) -> Scenario:
    """One row: steady load at ``multiplier`` x capacity through the
    full overload stack (admission + backpressure + brownout)."""
    return Scenario(
        chain=monitors(3), seed=seed, costs=OVERLOAD_COSTS,
        duration_s=duration_s,
        workload=WorkloadSpec(base_pps=multiplier * OVERLOAD_CAPACITY_PPS,
                              n_flows=32, n_classes=3),
        admission_pps=OVERLOAD_BUDGET * OVERLOAD_CAPACITY_PPS,
        slo_p99_us=OVERLOAD_P99_US, drain_s=160e-3)


def run(seed: int = 0) -> ExperimentResult:
    duration_s = 30e-3 if quick_mode() else 100e-3
    multipliers = [1.0, 4.0] if quick_mode() else LOAD_MULTIPLIERS
    result = ExperimentResult(
        experiment="Overload: goodput/latency/shedding vs offered load "
                   f"(Ch-3, f=1, capacity {OVERLOAD_CAPACITY_PPS:g} pps, "
                   f"admission budget {OVERLOAD_BUDGET:g}x)",
        headers=["Offered (x cap)", "Offered (pps)", "Goodput (pps)",
                 "p99 lat (us)", "Shed c0/c1/c2 (%)", "In-chain drops",
                 "Brownout"])
    for multiplier in multipliers:
        out = run_scenario(
            point(multiplier, duration_s, seed)).checked()
        chain, admission, workload, egress = (
            out.chain, out.admission, out.generator, out.egress)
        shed_pct = []
        for cls in range(admission.n_classes):
            offered = admission.offered_by_class[cls]
            shed_pct.append(
                f"{admission.shed_by_class[cls] / offered:.0%}"
                if offered else "-")
        in_chain = (sum(r.server.nic.rx_dropped for r in chain.replicas)
                    + chain.buffer.overflow_dropped)
        result.add(
            f"{multiplier:g}x",
            round(workload.sent / duration_s),
            round(egress.count / duration_s),
            round(egress.latency.percentile_us(99), 1)
            if len(egress.latency) else 0.0,
            "/".join(shed_pct),
            in_chain,
            sum(1 for transition in out.brownout.transitions
                if transition.t <= duration_s + OBSERVE_S))
    result.notes.append(
        "Shed % per priority class (c2 highest) at the ingress gate -- "
        "the only legal drop point; in-chain drops must stay 0 at every "
        "load (PROTOCOL.md §12.2).")
    result.notes.append(
        "Past saturation goodput holds near the admission budget while "
        "brownout throttles toward sustainable capacity; excess load is "
        "shed lowest-class-first.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
