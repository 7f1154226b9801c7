#!/usr/bin/env python3
"""Print the README's measured tables from a result file.

    python benchmarks/ftcbench/shares.py benchmarks/ftcbench/runs/seed-commit.json

The layer-share table in README.md is this script's output on the
committed seed-commit runs -- regenerate it rather than editing it.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

SUFFIX = ".self_us_per_pkt"

#: Rows under the layer shares: what separates the workloads.
EXTRA_ROWS = (
    ("host_pps", "end_to_end", "{:.0f}"),
    ("sim_latency_p99_us", "end_to_end", "{:.1f}"),
    ("sim_outage_ms", "end_to_end", "{:.3g}"),
    ("delivered_share", "end_to_end", "{:.4f}"),
    ("sim.engine.events_per_pkt", "per_layer", "{:.1f}"),
    ("stm.conflict_share", "per_layer", "{:.3f}"),
    ("net.channel.frames_per_pkt", "per_layer", "{:.2f}"),
    ("net.channel.retransmits_per_pkt", "per_layer", "{:.3f}"),
    ("core.piggyback.bytes_per_msg", "per_layer", "{:.0f}"),
    ("trace.overhead_ratio", "per_layer", "{:.2f}"),
    ("trace.covered_share", "per_layer", "{:.3f}"),
)


def tables(results: List[Dict[str, Any]]) -> str:
    names = [result["workload"] for result in results]
    layers = [metric[:-len(SUFFIX)] for metric in results[0]["per_layer"]
              if metric.endswith(SUFFIX)]
    totals = [sum(result["per_layer"][layer + SUFFIX] for layer in layers)
              for result in results]
    lines = ["| layer: share of traced wall (self µs/packet) | "
             + " | ".join(f"`{name}`" for name in names) + " |",
             "|---|" + "---:|" * len(names)]
    for layer in layers:
        cells = []
        for result, total in zip(results, totals):
            value = result["per_layer"][layer + SUFFIX]
            cells.append(f"{value / total:.1%} ({value:.1f})" if value
                         else "0")
        lines.append(f"| `{layer}` | " + " | ".join(cells) + " |")
    lines.append("| **Σ self µs/packet** | "
                 + " | ".join(f"{total:.0f}" for total in totals) + " |")
    for metric, group, fmt in EXTRA_ROWS:
        lines.append(f"| `{metric}` | " + " | ".join(
            fmt.format(result[group][metric]) for result in results) + " |")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        data = json.load(handle)
    print(tables(data["sets"][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
