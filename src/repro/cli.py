"""Command-line interface.

Eight subcommands cover the common workflows::

    python -m repro list                    # available middleboxes/systems
    python -m repro run --chain monitor,monitor --system ftc --rate 2e6
    python -m repro experiment fig9         # regenerate a table/figure
    python -m repro chaos --seed 0 --faults 3   # fault-injection soak
    python -m repro trace --out trace.json  # sampled Chrome trace
    python -m repro explain flight.json --recovery 1   # post-mortem
    python -m repro report --slo p99_latency_us<=500   # markdown report
    python -m repro perf bench --all --quick  # perfscope suite (§13)

``run`` builds the requested chain under the requested system, drives
it for a simulated duration, and prints throughput/latency plus the
per-middlebox state summary; ``--telemetry`` adds the chain-wide metric
summary (PROTOCOL.md §7).  ``trace`` is ``run`` with per-packet span
recording on, exporting Chrome ``trace_event`` JSON for
``chrome://tracing`` / Perfetto.

``--flight`` (run/trace/report, and per-schedule on ``chaos``) turns
on the causal flight recorder (PROTOCOL.md §10); ``explain`` walks a
dump's ``parent_ref`` links to reconstruct one packet's journey, one
recovery, or one leadership epoch; ``report`` runs a chain under an
SLO watchdog and renders a self-contained markdown run report.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import List

__all__ = ["main"]

_EXPERIMENTS = ["table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "ablations", "calibration",
                "lossy", "ctrlplane", "reconfig", "overload"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault Tolerant Service Function Chaining (SIGCOMM'20) "
                    "reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list middlebox kinds, systems, experiments")

    def _chain_options(cmd):
        cmd.add_argument("--chain", default="monitor,monitor",
                         help="comma-separated middlebox kinds (see 'list')")
        cmd.add_argument("--system", default="ftc",
                         help="nf | ftc | ftmb | ftmb+snapshot | remote-store")
        cmd.add_argument("--rate", type=float, default=1e6,
                         help="offered load in packets/second")
        cmd.add_argument("--duration", type=float, default=0.01,
                         help="simulated seconds of traffic")
        cmd.add_argument("--threads", type=int, default=8,
                         help="worker threads per server")
        cmd.add_argument("-f", type=int, default=1, dest="failures",
                         help="failures to tolerate (FTC only)")
        cmd.add_argument("--packet-size", type=int, default=256)
        cmd.add_argument("--flows", type=int, default=64)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--fail-at", type=float, default=None,
                         help="inject a failure at this time (FTC only)")
        cmd.add_argument("--fail-position", type=int, default=0)
        cmd.add_argument("--impair-data", default=None, metavar="SPEC",
                         dest="impair_data",
                         help="impair chain links, e.g. "
                              "drop=0.05,dup=0.02,reorder=0.02,corrupt=0.01 "
                              "(FTC hops switch to reliable channels, §8)")
        cmd.add_argument("--workload", default=None, metavar="SPEC",
                         help="drive a WorkloadSpec instead of constant "
                              "--rate traffic, e.g. base=2e4,"
                              "flash=0.002:0.004:4,diurnal=0.3:0.05,"
                              "alpha=1.3,flows=64,classes=3 "
                              "(PROTOCOL.md §12.1; --rate/--flows/"
                              "--packet-size are ignored)")
        cmd.add_argument("--flight", nargs="?", const="flight.json",
                         default=None, metavar="PATH",
                         help="record a causal flight log and dump it to "
                              "PATH (default flight.json) for 'repro "
                              "explain' (PROTOCOL.md §10)")

    run = sub.add_parser("run", help="simulate a chain under a system")
    _chain_options(run)
    run.add_argument("--orchestrators", type=int, default=1, metavar="N",
                     help="replicated control plane: N leader-elected "
                          "orchestrators with epoch fencing (FTC only; "
                          "N=1 keeps the single-orchestrator path)")
    run.add_argument("--telemetry", action="store_true",
                     help="collect chain-wide metrics and print the "
                          "telemetry summary (FTC only)")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="with --telemetry: also export a Chrome trace")

    trace = sub.add_parser(
        "trace", help="record a sampled per-packet Chrome trace")
    _chain_options(trace)
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--sample", type=int, default=1,
                       help="trace every Nth packet id (default: all)")
    trace.add_argument("--timeline", action="store_true",
                       help="also print the recovery timeline report")

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument("name", choices=_EXPERIMENTS)

    chaos = sub.add_parser(
        "chaos", help="run a randomized fault-injection soak")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed (reproduces a soak bit-for-bit)")
    chaos.add_argument("--schedules", type=int, default=50,
                       help="randomized schedules to run")
    chaos.add_argument("--faults", type=int, default=None,
                       help="faults injected per schedule (default 3)")
    chaos.add_argument("--lengths", default="2,3,4,5",
                       help="comma-separated Ch-n chain lengths")
    chaos.add_argument("--f-values", default="1,2", dest="f_values",
                       help="comma-separated f values to sweep")
    chaos.add_argument("--duration", type=float, default=None,
                       help="simulated seconds per schedule (default 0.06;"
                            " at least 0.08 with --reconfig, 0.12 with "
                            "--overload, and those are their defaults)")
    chaos.add_argument("--rate", type=float, default=None,
                       help="offered load in packets/second (default 2e4)")
    chaos.add_argument("-v", "--verbose", action="store_true",
                       help="print each schedule as it completes")
    chaos.add_argument("--telemetry", action="store_true",
                       help="aggregate chain-wide metrics and recovery "
                            "timelines across schedules")
    chaos.add_argument("--impair-data", default=None, metavar="SPEC",
                       dest="impair_data",
                       help="soak the data plane instead: impair chain "
                            "links (e.g. drop=0.05,dup=0.02,reorder=0.02,"
                            "corrupt=0.01) and audit exactly-once egress")
    chaos.add_argument("--orchestrators", type=int, default=1, metavar="N",
                       help="soak the control plane: N leader-elected "
                            "orchestrators per schedule (default 1: the "
                            "classic single-orchestrator soak)")
    chaos.add_argument("--orch-faults", action="store_true",
                       dest="orch_faults",
                       help="with --orchestrators > 1: also crash, "
                            "partition, and freeze ensemble members")
    chaos.add_argument("--reconfig", action="store_true",
                       help="soak live reconfiguration: each schedule "
                            "drives a scripted operation sequence "
                            "(classifier, rescale, migrate, insert, "
                            "remove) under traffic + lossy links and "
                            "audits zero-loss in-order egress "
                            "(PROTOCOL.md §11)")
    chaos.add_argument("--reconfig-crashes", action="store_true",
                       dest="reconfig_crashes",
                       help="with --reconfig: also crash a replica "
                            "mid-drain (zero-loss waived; every other "
                            "invariant still audited)")
    chaos.add_argument("--overload", nargs="?", const="", default=None,
                       metavar="SPEC",
                       help="soak the overload stack instead: each "
                            "schedule drives a flash-crowd workload "
                            "through admission control + backpressure + "
                            "brownout and audits the §12 invariants; "
                            "SPEC tunes it, e.g. over=8,base=0.6,"
                            "budget=1.25,floor=0.25,crash=1,orch=3")
    chaos.add_argument("--flight", nargs="?", const="flight-dumps",
                       default=None, metavar="DIR",
                       help="record a flight log per schedule; an invariant "
                            "violation auto-dumps flight-<index>.json into "
                            "DIR for 'repro explain'")

    explain = sub.add_parser(
        "explain", help="post-mortem: reconstruct a causal chain "
                        "from a flight dump")
    explain.add_argument("dump", help="flight dump JSON "
                                      "(--flight output or a soak auto-dump)")
    what = explain.add_mutually_exclusive_group(required=True)
    what.add_argument("--packet", type=int, default=None, metavar="PID",
                      help="one packet's journey through the chain")
    what.add_argument("--recovery", type=int, default=None, metavar="POS",
                      help="one recovery of chain position POS, walked "
                           "back from its terminal event in the dump")
    what.add_argument("--epoch", type=int, default=None, metavar="E",
                      help="one leadership term: election, journal "
                           "writes, demise")

    report = sub.add_parser(
        "report", help="run a chain and render a markdown run report")
    _chain_options(report)
    report.add_argument("--orchestrators", type=int, default=1, metavar="N",
                        help="replicated control plane, as in 'run'")
    report.add_argument("--slo", default=None, metavar="SPEC",
                        help="SLO objectives, e.g. 'p99_latency_us<=250,"
                             "goodput_pps>=5e5' (indicators: p99_latency_us, "
                             "goodput_pps, retransmit_rate, and with "
                             "--orchestrators > 1 detection_s, recovery_s)")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the markdown report here "
                             "(default: stdout)")

    from .perf.cli import add_perf_parser
    add_perf_parser(sub)
    return parser


def _cmd_list() -> int:
    from .middlebox import available
    print("middlebox kinds:")
    for kind in available():
        print(f"  {kind}")
    print("\nsystems: nf, ftc, ftmb, ftmb+snapshot, remote-store")
    print("\nexperiments:", ", ".join(_EXPERIMENTS))
    return 0


def _parse_impairment(text: str, prog: str):
    from .net import DataImpairment
    try:
        return DataImpairment.parse(text)
    except ValueError as err:
        raise SystemExit(f"{prog}: {err}")


def _scenario(args):
    """The Scenario ``run|trace|report`` describe with their flags.
    ``--orchestrators 1`` means no control plane: a ``--fail-at`` crash
    is recovered directly.  ``--impair-data`` is never healed."""
    from .chaos import IMPAIRED_DELIVERY, FaultSpec, Scenario, Step
    from .chaos.scenario import ORACLE_CHECKS, mbox

    faults = steps = ()
    if args.impair_data:
        impairment = _parse_impairment(args.impair_data, "repro run")
        print(f"data impairment: {impairment.describe()}")
        faults = (FaultSpec(kind=IMPAIRED_DELIVERY, **{
            name: getattr(impairment, name) for name in
            ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate")}),)
    workload = None
    if args.workload:
        from .net import WorkloadSpec
        try:
            workload = WorkloadSpec.parse(args.workload)
        except ValueError as err:
            raise SystemExit(f"repro run: bad --workload: {err}")
        print(f"workload: {workload.describe()}")
    orchestrators = getattr(args, "orchestrators", 1)
    orchestrators = orchestrators if orchestrators > 1 else 0
    if args.fail_at is not None:
        steps = (Step(args.fail_at, crash=args.fail_position),)
        if not orchestrators:
            steps += (Step(args.fail_at, recover=args.fail_position),)
    kinds = [kind.strip() for kind in args.chain.split(",")]
    return Scenario(
        system=args.system,
        chain=tuple(mbox(kind, name=f"{kind}{i}")
                    for i, kind in enumerate(kinds)),
        duration_s=args.duration, f=args.failures, seed=args.seed,
        threads=args.threads, rate_pps=args.rate, flows=args.flows,
        packet_size=args.packet_size, workload=workload,
        reliable_links=bool(faults), faults=faults,
        orchestrators=orchestrators, steps=steps, checks=ORACLE_CHECKS,
        quiescent=False, warmup_s=min(args.duration * 0.2, 1e-3),
        drain_s=0.5e-3)


def _run(args, telemetry=None, on_start=None):
    """Run ``args``' scenario and print its recoveries; the Run, or
    None when the flags ask a non-FTC system for FTC machinery."""
    from .chaos import run

    try:
        scenario = _scenario(args)
    except ValueError as err:
        print(f"repro {args.command}: {err}", file=sys.stderr)
        return None
    out = run(scenario, telemetry=telemetry, on_start=on_start)
    ensemble = out.ensemble
    for event in out.failures:
        report = event.report
        if ensemble is None:
            print(f"[{(event.detected_at + report.total_s) * 1e3:.2f} ms] "
                  f"recovered position {event.positions[0]} in "
                  f"{report.total_s * 1e3:.2f} ms")
        elif report is not None:
            print(f"[{event.detected_at * 1e3:.2f} ms] leader recovered "
                  f"positions {event.positions} in "
                  f"{report.total_s * 1e3:.2f} ms")
        elif event.error:
            print(f"[{event.detected_at * 1e3:.2f} ms] recovery of "
                  f"{event.positions} failed: {event.error}")
    if ensemble is not None:
        leader = ensemble.leader
        print(f"control plane: {ensemble.n} orchestrators, "
              f"{len(ensemble.election_log)} elections, leader "
              f"{'m%d' % leader.index if leader else 'none'} at epoch "
              f"{ensemble.max_epoch}, "
              f"{ensemble.gate.fenced_commands} stale commands fenced")
    for violation in out.violations:
        print(f"invariant violation: {violation}", file=sys.stderr)
    return out


def _print_run_summary(args, out) -> None:
    from .metrics import format_table
    system, generator, egress = out.chain, out.generator, out.egress
    middleboxes = system.middleboxes
    print(f"\n{args.system.upper()} chain: "
          f"{' -> '.join(m.name for m in middleboxes)}")
    if getattr(args, "impair_data", None):
        spec = _parse_impairment(args.impair_data, "repro run")
        print(f"data impairment: {spec.describe()}")
        stats = system.net.data_impairment_stats()
        print(f"  links: {stats['dropped']} dropped, "
              f"{stats['duplicated']} duplicated, "
              f"{stats['reordered']} reordered, "
              f"{stats['corrupted']} corrupted")
        ch = system.channel_stats()
        print(f"  channels: {ch.get('retransmissions', 0)} "
              f"retransmissions, {ch.get('nacks_sent', 0)} NACKs, "
              f"{ch.get('dup_dropped', 0)} dups dropped, "
              f"{ch.get('corrupt_dropped', 0)} corrupt dropped")
    if getattr(args, "workload", None):
        print(f"offered {generator.sent} packets (workload-driven); "
              f"released {system.total_released()}")
    else:
        print(f"offered {generator.sent} packets at {args.rate:g} pps; "
              f"released {system.total_released()}")
    print(f"throughput: {egress.throughput.rate_mpps():.3f} Mpps"
          f"  ({egress.throughput.rate_gbps():.2f} Gbps)")
    if len(egress.latency):
        print(f"latency: mean {egress.latency.mean_us():.1f} us, "
              f"p50 {egress.latency.percentile_us(50):.1f}, "
              f"p99 {egress.latency.percentile_us(99):.1f}")
    rows = [(m.name, m.describe(), m.packets_processed, m.packets_dropped)
            for m in middleboxes]
    print()
    print(format_table(["middlebox", "function", "processed", "dropped"],
                       rows))


def _make_telemetry(args, sample_every: int = 1, flight=None):
    if args.system.lower() != "ftc":
        print(f"note: telemetry hooks only instrument the FTC chain; "
              f"--system {args.system} runs without them", file=sys.stderr)
    from .telemetry import Telemetry
    return Telemetry(sample_every=sample_every, flight=flight)


def _make_flight(args):
    """A FlightRecorder for --flight runs; trips auto-dump to the
    requested path, and the CLI demand-dumps there at the end anyway."""
    from .flight import FlightRecorder
    flight = FlightRecorder(autodump_path=args.flight)
    flight.set_context(seed=args.seed, chain=args.chain, system=args.system,
                       rate_pps=args.rate, duration_s=args.duration,
                       f=args.failures)
    return flight


def _dump_flight(flight, path, telemetry) -> None:
    flight.dump_json(path, reason="demand", telemetry=telemetry)
    print(f"flight dump written to {path} ({len(flight)} events, "
          f"{flight.dropped} shed, {len(flight.trips)} trips)")


def _cmd_run(args) -> int:
    flight = _make_flight(args) if args.flight else None
    telemetry = None
    if args.telemetry or flight is not None:
        telemetry = _make_telemetry(args, flight=flight)
    out = _run(args, telemetry=telemetry)
    if out is None:
        return 2
    _print_run_summary(args, out)
    if telemetry is not None and args.telemetry:
        print()
        print(telemetry.summary_table())
        if args.trace_out:
            telemetry.export_chrome(args.trace_out)
            print(f"chrome trace written to {args.trace_out}")
    if flight is not None:
        _dump_flight(flight, args.flight, telemetry)
    return 1 if out.violations else 0


def _cmd_trace(args) -> int:
    flight = _make_flight(args) if args.flight else None
    telemetry = _make_telemetry(args, sample_every=max(1, args.sample),
                                flight=flight)
    out = _run(args, telemetry=telemetry)
    if out is None:
        return 2
    _print_run_summary(args, out)
    print()
    print(telemetry.summary_table())
    if args.timeline and telemetry.timeline.events:
        print()
        print(telemetry.timeline.render())
    telemetry.export_chrome(args.out)
    print(f"chrome trace written to {args.out} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    if flight is not None:
        _dump_flight(flight, args.flight, telemetry)
    return 1 if out.violations else 0


def _cmd_explain(args) -> int:
    from .flight import (explain_epoch, explain_packet, explain_recovery,
                         load_dump)
    try:
        dump = load_dump(args.dump)
    except (OSError, ValueError) as err:
        print(f"repro explain: {err}", file=sys.stderr)
        return 2
    if args.packet is not None:
        text = explain_packet(dump, args.packet)
    elif args.recovery is not None:
        text = explain_recovery(dump, args.recovery)
    else:
        text = explain_epoch(dump, args.epoch)
    print(text)
    return 0


def _cmd_report(args) -> int:
    from .flight import (SLOWatchdog, parse_slo_spec, render_report,
                         run_probes)

    objectives = []
    if args.slo:
        try:
            objectives = parse_slo_spec(args.slo)
        except ValueError as err:
            raise SystemExit(f"repro report: {err}")
    flight = _make_flight(args)
    telemetry = _make_telemetry(args, flight=flight)
    state = {}

    def on_start(out):
        probes = run_probes(
            out.egress, chain=out.chain if out.scenario.ftc else None,
            orchestrator=out.ensemble)
        try:
            watchdog = SLOWatchdog(out.sim, objectives, probes,
                                   telemetry=telemetry)
        except ValueError as err:
            raise SystemExit(
                f"repro report: {err} (detection_s/recovery_s need "
                f"--orchestrators > 1; retransmit_rate needs --system ftc)")
        watchdog.start()
        state["watchdog"] = watchdog

    out = _run(args, telemetry=telemetry, on_start=on_start)
    if out is None:
        return 2
    watchdog = state.get("watchdog")
    if watchdog is not None:
        # No final pass after the drain: the post-traffic window would
        # read as a goodput collapse that never happened on the wire.
        watchdog.stop()
    config = {"chain": args.chain, "system": args.system,
              "rate_pps": args.rate, "duration_s": args.duration,
              "threads": args.threads, "f": args.failures,
              "seed": args.seed, "offered": out.generator.sent}
    if args.orchestrators > 1:
        config["orchestrators"] = args.orchestrators
    if args.slo:
        config["slo"] = args.slo
    text = render_report(
        title=f"Run report: {args.system.upper()} "
              f"{' -> '.join(m.name for m in out.chain.middleboxes)}",
        config=config, egress=out.egress, telemetry=telemetry,
        watchdog=watchdog, flight=flight)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    if args.flight:
        _dump_flight(flight, args.flight, telemetry)
    return 0 if (watchdog is None or watchdog.ok) and not out.violations \
        else 1


def _parse_int_list(text: str, option: str) -> List[int]:
    try:
        values = [int(item) for item in text.split(",")]
    except ValueError:
        raise SystemExit(f"repro chaos: {option} wants comma-separated "
                         f"integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise SystemExit(f"repro chaos: {option} values must be >= 1, "
                         f"got {text!r}")
    return values


def _cmd_chaos(args) -> int:
    from dataclasses import replace
    from functools import partial

    from .chaos import (OverloadSpec, chaos_scenario, ctrlplane_scenario,
                        impaired_scenario, overload_scenario,
                        reconfig_scenario, run_soak)
    from .metrics import format_table

    overload = impair = None
    if args.overload is not None:
        try:
            overload = OverloadSpec.parse(args.overload)
        except ValueError as err:
            raise SystemExit(f"repro chaos: bad --overload: {err}")
    if args.impair_data:
        impair = _parse_impairment(args.impair_data, "repro chaos")
    grid = [(n, f) for n in _parse_int_list(args.lengths, "--lengths")
            for f in _parse_int_list(args.f_values, "--f-values")]
    # A flag takes effect or is an error, never silently ignored.
    modes = [flag for flag, on in (("--overload", overload),
                                   ("--reconfig", args.reconfig),
                                   ("--impair-data", impair)) if on]
    mode = modes[0] if modes else None
    orch = args.orchestrators
    floor = {"--reconfig": 80e-3, "--overload": 120e-3}.get(mode)
    for broken, message in [
            (len(modes) > 1,
             " and ".join(modes) + " are separate soak modes"),
            (orch < 1, "--orchestrators must be >= 1"),
            (args.orch_faults and orch < 2,
             "--orch-faults needs --orchestrators >= 2 (no ensemble)"),
            (impair and orch > 1,
             "--impair-data and --orchestrators are separate soak modes"),
            (args.reconfig_crashes and not args.reconfig,
             "--reconfig-crashes needs --reconfig"),
            (mode and (args.faults is not None or args.orch_faults),
             f"--faults and --orch-faults tune the monkey; {mode} has none"),
            (overload and args.rate is not None,
             "--rate has no effect under --overload (SPEC sets the load)"),
            (floor and args.duration is not None and args.duration < floor,
             f"{mode} needs --duration >= {floor}")]:
        if broken:
            raise SystemExit(f"repro chaos: {message}")
    # An unset flag takes the soak kind's own default.
    given = {name: value for name, value in (
        ("max_faults", args.faults), ("duration_s", args.duration),
        ("rate_pps", args.rate)) if value is not None}
    if overload is not None:
        if orch > 1 and overload.orchestrators == 1:
            overload = replace(overload, orchestrators=orch)
        kind = partial(overload_scenario, spec=overload)
        print(f"overload soak: {overload.describe()}")
    elif args.reconfig:
        kind = partial(reconfig_scenario, crashes=args.reconfig_crashes,
                       orchestrators=orch)
    elif impair is not None:
        kind = partial(impaired_scenario, **{
            name: getattr(impair, name) for name in
            ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate")})
        print(f"data impairment: {impair.describe()}")
    elif orch > 1:
        # The plain soak's monkey settings, not the factory's defaults.
        kind = partial(ctrlplane_scenario, orchestrators=orch, max_faults=3,
                       orch_faults=args.orch_faults, duration_s=60e-3,
                       mean_fault_interval_s=8e-3)
    else:
        kind = chaos_scenario
    scenarios = [kind(seed=args.seed * 10_000 + i, chain_length=n, f=f,
                      index=i, **given) for i, (n, f) in
                 zip(range(args.schedules), itertools.cycle(grid))]

    def progress(out):
        sc, stats = out.scenario, out.chain.channel_stats()
        extra = (f"{stats.get('retransmissions', 0)} retransmitted, "
                 if impair else "")
        if overload is not None:
            extra += (f"{out.admission.shed} shed, "
                      f"{len(out.brownout.transitions)} brownout, "
                      f"{out.oracle.released / sc.duration_s:.0f}pps, ")
        if orch > 1:
            extra += (f"{len(out.ensemble.election_log)} elections, "
                      f"{out.ensemble.gate.fenced_commands} fenced, ")
        print(f"  schedule {dict(sc.context)['schedule']:3d} "
              f"seed={sc.seed} Ch-{len(sc.chain)} f={sc.f}: "
              f"{len(out.faults)} faults, {len(out.failures)} detected, "
              f"{sum(e.recovered for e in out.failures)} recovered, "
              f"{extra}{out.oracle.released} released -> "
              f"{'FAIL' if out.violations else 'ok'}")

    result = run_soak(scenarios, telemetry=args.telemetry,
                      flight_dir=args.flight or None,
                      progress=progress if args.verbose else None)
    runs = result.runs
    print(result.summary())
    if impair is not None:
        resent = sum(out.chain.channel_stats().get("retransmissions", 0)
                     for out in runs)
        print(f"data-plane reliability: "
              f"{sum(out.generator.sent for out in runs)} offered, "
              f"{sum(out.oracle.released for out in runs)} released, "
              f"{resent} hop retransmissions")
    if result.registry is not None:
        rows = result.registry.rows()
        if rows:
            print()
            print(format_table(
                ["metric", "type", "count/value", "mean", "p50", "p99",
                 "max"], rows, title="telemetry summary (all schedules)"))
        events = sum(len(out.chain.telemetry.timeline.events)
                     for out in runs)
        print(f"recovery timelines: {events} events across "
              f"{len(runs)} schedules")
    if args.flight:
        if result.flight_dumps:
            print("flight dumps (invariant trips):")
            for path in result.flight_dumps:
                print(f"  {path}")
        else:
            print("no invariant trips; no flight dumps written")
    return 0 if result.ok else 1


def _cmd_experiment(name: str) -> int:
    import importlib
    module = importlib.import_module(f"repro.experiments.{name}")
    module.main()
    return 0


def main(argv: List[str] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "experiment":
        return _cmd_experiment(args.name)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "perf":
        from .perf.cli import cmd_perf
        return cmd_perf(args)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
