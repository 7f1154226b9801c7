"""Lossy-link sweep: goodput/latency vs data-plane impairment (§8).

Not a paper figure -- the testbed's 10 GbE links are effectively
lossless -- but the natural question for any WAN/overlay deployment:
what does FTC's hop-by-hop reliability layer cost as chain links get
worse?  Each row impairs every chain link at a drop rate (plus fixed
duplication/reordering/corruption) and reports egress goodput, latency,
and how hard the retransmission machinery worked.  The first row is the
unimpaired baseline on raw links: with impairment off the reliable
channels are off too, so it matches the paper-mode figures exactly.
"""

from __future__ import annotations

from ..chaos.scenario import Scenario, run as run_scenario
from .runner import ExperimentResult, quick_mode

#: Per-link drop probabilities swept (full mode).
DROP_RATES = [0.0, 0.02, 0.05, 0.10]
#: Fixed companion impairments applied whenever drop > 0.
DUP_RATE = 0.02
REORDER_RATE = 0.02
CORRUPT_RATE = 0.01

OFFERED_PPS = 1e5


def point(drop_rate: float, duration_s: float, seed: int) -> Scenario:
    """One row: raw links at drop 0, impaired reliable links otherwise.
    Retransmission tails (RTO backoff caps at 2 ms) need a generous
    drain before delivery ratios are meaningful."""
    impaired = drop_rate > 0
    return Scenario(
        chain_length=2, seed=seed, duration_s=duration_s,
        rate_pps=OFFERED_PPS, reliable_links=impaired,
        impair=((drop_rate, DUP_RATE, REORDER_RATE, CORRUPT_RATE)
                if impaired else None),
        warmup_s=duration_s * 0.2, drain_s=10e-3)


def run(seed: int = 0) -> ExperimentResult:
    duration_s = 10e-3 if quick_mode() else 40e-3
    drops = [0.0, 0.05] if quick_mode() else DROP_RATES
    result = ExperimentResult(
        experiment="Lossy links: FTC goodput/latency vs per-link drop rate "
                   f"(Ch-2, f=1, {OFFERED_PPS:g} pps offered)",
        headers=["Drop rate", "Goodput (Mpps)", "Mean lat (us)",
                 "p99 lat (us)", "Retransmits", "Link drops", "Delivered"])
    for drop_rate in drops:
        out = run_scenario(point(drop_rate, duration_s, seed)).checked()
        chain, generator, egress = out.chain, out.generator, out.egress
        stats = chain.channel_stats()
        impair = chain.net.data_impairment_stats()
        delivered = (f"{chain.total_released()}/{generator.sent}"
                     if generator.sent else "0/0")
        result.add(
            f"{drop_rate:.2f}",
            round(egress.throughput.rate_mpps(), 4),
            round(egress.latency.mean_us(), 1) if len(egress.latency) else 0.0,
            round(egress.latency.percentile_us(99), 1)
            if len(egress.latency) else 0.0,
            stats.get("retransmissions", 0),
            impair["dropped"],
            delivered)
    result.notes.append(
        "Companion impairments at drop>0: dup=0.02 reorder=0.02 "
        "corrupt=0.01 per link; row 0.00 is raw links (no reliability "
        "layer), matching the paper-mode figures.")
    result.notes.append(
        "Delivered counts every offered packet: hop retransmission must "
        "recover all link losses (exactly-once egress, PROTOCOL.md §8).")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
