"""The ``repro perf`` subcommand family (PROTOCOL.md §13).

* ``repro perf bench``    -- run the scenario suite, write BENCH_*.json
* ``repro perf compare``  -- exact gate: current dir vs baselines
* ``repro perf profile``  -- one scenario: stage call table and a
  Chrome trace with counter tracks

Only ``add_perf_parser`` / ``cmd_perf`` are imported by the top-level
CLI; everything that pulls in the simulator is imported inside the
handler that needs it, so ``repro perf compare`` stays stdlib-light.
"""

from __future__ import annotations

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
    perf = sub.add_parser(
        "perf", help="per-stage cost attribution and the benchmark suite")
    psub = perf.add_subparsers(dest="perf_command", required=True)

    bench = psub.add_parser(
        "bench", help="run the scenario benchmark suite")
    bench.add_argument("--scenario", action="append", default=None,
                       choices=SCENARIO_CHOICES, metavar="NAME",
                       help="run only NAME (repeatable; default: all)")
    bench.add_argument("--all", action="store_true",
                       help="run every scenario (the default when no "
                            "--scenario is given)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--quick", action="store_true",
                       help="shorter virtual duration (CI mode)")
    bench.add_argument("--out-dir", default=None, metavar="DIR",
                       help="write BENCH_<scenario>.json files here")

    compare = psub.add_parser(
        "compare", help="gate current BENCH reports against baselines")
    compare.add_argument("--baseline-dir", required=True, metavar="DIR")
    compare.add_argument("--current-dir", required=True, metavar="DIR")
    compare.add_argument("--markdown", default=None, metavar="PATH",
                         help="also write the gate table as markdown "
                              "(e.g. $GITHUB_STEP_SUMMARY)")

    profile = psub.add_parser(
        "profile", help="run one scenario with stage counts and a trace")
    profile.add_argument("scenario", choices=SCENARIO_CHOICES)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--quick", action="store_true")
    profile.add_argument("--out-prefix", default=None, metavar="PREFIX",
                         help="write PREFIX.trace.json")


def cmd_perf(args) -> int:
    handler = {
        "bench": _cmd_bench,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
    }[args.perf_command]
    return handler(args)


def _cmd_bench(args) -> int:
    from .bench import run_suite
    names = args.scenario  # None -> full suite, same as --all
    run_suite(names, seed=args.seed, quick=args.quick,
              out_dir=args.out_dir)
    return 0


def _cmd_compare(args) -> int:
    from .compare import compare_dirs, render_markdown
    outcome = compare_dirs(args.baseline_dir, args.current_dir)
    markdown = render_markdown(outcome)
    print(markdown)
    if args.markdown:
        with open(args.markdown, "a") as handle:
            handle.write(markdown + "\n")
    return 1 if outcome["failed"] else 0


def _cmd_profile(args) -> int:
    from ..telemetry import Telemetry
    from .bench import stage_table
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
    profiler.publish(telemetry.registry)
    print(f"[profile] {args.scenario}: released {packets} "
          f"(offered {result.get('offered', 0)}), "
          f"{samplers[0].samples if samplers else 0} counter samples")
    print(stage_table(profiler.report(packets=packets)))

    if args.out_prefix:
        trace_path = f"{args.out_prefix}.trace.json"
        telemetry.tracer.export(trace_path)
        print(f"[profile] wrote {trace_path}")
    return 0
