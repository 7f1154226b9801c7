"""``repro report``: one markdown post-run report per run.

Aggregates the three observability planes this repo has grown --
metrics (PR 2's registry), the recovery timeline, and PR 5's flight
recorder + SLO watchdog -- into a single human-readable markdown
document: run configuration, data-plane results, SLO verdicts with
worst observed values, recovery attempts, control-plane activity, and
a flight-ring summary with any trips that fired.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["render_report"]


def _md_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |"
                 for row in rows)
    return lines


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_report(title: str, config: Dict, egress=None, telemetry=None,
                  watchdog=None, flight=None) -> str:
    """Render the full markdown run report."""
    lines: List[str] = [f"# {title}", ""]

    if config:
        lines.append("## Run configuration")
        lines.append("")
        lines.extend(_md_table(
            ["parameter", "value"],
            [[key, _fmt(value)] for key, value in config.items()]))
        lines.append("")

    if egress is not None:
        lines.append("## Data plane")
        lines.append("")
        rows = [["released packets", str(egress.throughput.count)],
                ["goodput", f"{egress.throughput.rate_mpps():.3f} Mpps "
                            f"({egress.throughput.rate_gbps():.2f} Gbps)"]]
        if len(egress.latency):
            rows.append(["latency mean", f"{egress.latency.mean_us():.1f} us"])
            rows.append(["latency p50",
                         f"{egress.latency.percentile_us(50):.1f} us"])
            rows.append(["latency p99",
                         f"{egress.latency.percentile_us(99):.1f} us"])
        lines.extend(_md_table(["measure", "value"], rows))
        lines.append("")

    if watchdog is not None:
        lines.append("## SLO verdicts")
        lines.append("")
        rows = []
        for objective in watchdog.objectives:
            indicator = objective.indicator
            breaches = [b for b in watchdog.breaches
                        if b.objective.indicator == indicator]
            worst = watchdog.worst.get(indicator)
            rows.append([
                str(objective),
                "BREACHED" if breaches else "met",
                str(len(breaches)),
                _fmt(worst) if worst is not None else "-",
            ])
        lines.extend(_md_table(
            ["objective", "verdict", "breach ticks", "worst observed"], rows))
        lines.append("")
        if watchdog.breaches:
            lines.append(f"{len(watchdog.breaches)} breach tick(s) over "
                         f"{watchdog.evaluations} evaluations; first: "
                         f"{watchdog.breaches[0]}")
            lines.append("")

    timeline = getattr(telemetry, "timeline", None)
    attempts = timeline.attempts() if timeline is not None else []
    if attempts:
        lines.append("## Recovery attempts")
        lines.append("")
        rows = []
        for i, attempt in enumerate(attempts):
            phases = attempt.phases
            rows.append([
                str(i),
                "p" + ",".join(str(p) for p in attempt.positions),
                "committed" if attempt.committed else "aborted",
                f"{phases.get('initialization', 0.0) * 1e3:.3f}",
                f"{phases.get('state_recovery', 0.0) * 1e3:.3f}",
                f"{phases.get('rerouting', 0.0) * 1e3:.3f}",
                f"{attempt.total_s * 1e3:.3f}",
            ])
        lines.extend(_md_table(
            ["#", "positions", "status", "init (ms)", "fetch (ms)",
             "reroute (ms)", "total (ms)"], rows))
        lines.append("")

    registry = getattr(telemetry, "registry", None)
    metric_rows = registry.rows() if registry is not None else []
    if metric_rows:
        lines.append("## Metrics")
        lines.append("")
        lines.extend(_md_table(
            ["metric", "type", "count/value", "mean", "p50", "p99", "max"],
            [[str(cell) if cell != "" else "-" for cell in row]
             for row in metric_rows]))
        lines.append("")

    if flight is not None and flight.enabled:
        lines.append("## Flight recorder")
        lines.append("")
        lines.append(f"{len(flight)} events retained "
                     f"(capacity {flight.capacity}, {flight.dropped} shed), "
                     f"{len(flight.trips)} trip(s).")
        if flight.trips:
            lines.append("")
            lines.extend(f"- trip: {reason}" for reason in flight.trips)
        by_component: Dict[str, int] = {}
        for event in flight.events:
            by_component[event.component] = \
                by_component.get(event.component, 0) + 1
        if by_component:
            lines.append("")
            lines.extend(_md_table(
                ["component", "events"],
                [[name, str(count)]
                 for name, count in sorted(by_component.items())]))
        lines.append("")

    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
