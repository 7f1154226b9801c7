"""Head-to-head: NF vs FTC vs FTMB on one chain.

A miniature of the paper's §7.4 evaluation: saturate a chain of three
Monitors under each system and compare maximum throughput and latency
under a moderate load.

Run:  python examples/compare_systems.py          (quick)
      REPRO_FULL=1 python examples/compare_systems.py
"""

from repro.chaos.scenario import monitors
from repro.experiments import latency_under_load, saturation_throughput
from repro.experiments.runner import measure
from repro.metrics import format_table

SYSTEMS = ["NF", "FTC", "FTMB"]


def main():
    rows = []
    chain = monitors(3, n_threads=8)
    for system in SYSTEMS:
        tput = measure(saturation_throughput(
            system, chain)).throughput.rate_mpps()
        egress = measure(latency_under_load(system, chain, rate_pps=2e6))
        rows.append((system, round(tput, 2),
                     round(egress.latency.mean_us(), 1),
                     round(egress.latency.percentile_us(99), 1)))
    print(format_table(
        ["System", "Max throughput (Mpps)", "Mean latency (us)",
         "p99 latency (us)"],
        rows, title="Ch-3 (Monitors, 8 threads, sharing level 1)"))
    nf, ftc, ftmb = (row[1] for row in rows)
    print(f"\nFTC achieves {ftc / ftmb:.2f}x FTMB's throughput at "
          f"{100 * (1 - ftc / nf):.1f}% overhead vs NF "
          f"(paper: 2-3.5x FTMB, 6-13% vs NF).")


if __name__ == "__main__":
    main()
