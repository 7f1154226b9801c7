"""Fig 5: Gen throughput vs state size, per packet size.

"Figure 5 shows the impact of state size generated by Gen on
throughput.  Gen runs a single thread.  We vary the state size and
measure Gen's throughput for different packet sizes."  Paper: with
128 B packets, throughput drops ~9% for state up to 128 B; with 512 B
packets the drop is under a few percent for state up to 256 B.
"""

from __future__ import annotations

from ..chaos.scenario import mbox
from .runner import ExperimentResult, measure, saturation_throughput

PACKET_SIZES = [128, 256, 512]
STATE_SIZES = [16, 64, 128, 256]


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 5: Gen (1 thread) throughput vs state size",
        headers=["Packet size (B)", "State size (B)", "FTC (Mpps)",
                 "Drop vs 16 B state"])
    for packet_size in PACKET_SIZES:
        base = None
        for state_size in STATE_SIZES:
            mpps = measure(saturation_throughput(
                "ftc", (mbox("gen", name="gen", state_size=state_size),),
                threads=1, packet_size=packet_size, rate_pps=6e6,
                seed=seed)).throughput.rate_mpps()
            if base is None:
                base = mpps
            drop = 100.0 * (1 - mpps / base) if base else 0.0
            result.add(packet_size, state_size, round(mpps, 3),
                       f"{drop:.1f}%")
    result.notes.append(
        "Paper: <=9% drop at 128 B packets / 128 B state; negligible "
        "drop at 512 B packets.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
