"""The ``repro perf`` subcommand (PROTOCOL.md §13).

``repro perf profile <scenario>`` runs one scenario and prints its
stage call table; ``--out-prefix`` also writes a Chrome trace with
counter tracks.  The scenarios' exact counts are pinned by the
data-path golden (``tests/test_datapath_golden.py``).

Only ``add_perf_parser`` / ``cmd_perf`` are imported by the top-level
CLI; the simulator is imported inside the handler, so ``repro --help``
stays light.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["add_perf_parser", "cmd_perf"]

#: Kept in sync with repro.perf.scenarios.SCENARIOS (tested); listing
#: them statically lets argparse validate without importing the sim.
SCENARIO_CHOICES = (
    "baseline",
    "reliable-links",
    "lossy",
    "ctrlplane-failover",
    "reconfig-under-traffic",
    "overload",
)


def add_perf_parser(sub) -> None:
    """Register the ``perf`` subparser on the top-level subparsers."""
    perf = sub.add_parser("perf", help="per-stage call counts")
    psub = perf.add_subparsers(dest="perf_command", required=True)
    profile = psub.add_parser(
        "profile", help="run one scenario with stage counts and a trace")
    profile.add_argument("scenario", choices=SCENARIO_CHOICES)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--quick", action="store_true")
    profile.add_argument("--out-prefix", default=None, metavar="PREFIX",
                         help="write PREFIX.trace.json")


def stage_table(stages: Dict) -> str:
    """Plain-text table of a ``StageProfiler.report``."""
    if not stages:
        return "(no stage data)"
    lines = [f"{'stage':<22}{'calls':>10}{'calls/pkt':>11}"]
    for stage, entry in stages.items():
        lines.append(f"{stage:<22}{entry.get('calls', 0):>10}"
                     f"{entry.get('calls_per_packet', 0.0):>11.3f}")
    return "\n".join(lines)


def cmd_perf(args) -> int:
    from ..telemetry import Telemetry
    from .counters import CounterSampler
    from .profiler import StageProfiler
    from .scenarios import run_scenario

    profiler = StageProfiler()
    telemetry = Telemetry(sample_every=1, max_trace_events=500_000,
                          profiler=profiler)
    samplers = []

    def on_start(out):
        samplers.append(CounterSampler(out.sim, telemetry.tracer, out.chain))

    result = run_scenario(args.scenario, seed=args.seed, quick=args.quick,
                          profiler=profiler, telemetry=telemetry,
                          on_start=on_start)
    packets = result.get("released", 0)
    print(f"[profile] {args.scenario}: released {packets} "
          f"(offered {result.get('offered', 0)}), "
          f"{samplers[0].samples if samplers else 0} counter samples")
    print(stage_table(profiler.report(packets=packets)))

    if args.out_prefix:
        trace_path = f"{args.out_prefix}.trace.json"
        telemetry.tracer.export(trace_path)
        print(f"[profile] wrote {trace_path}")
    return 0
