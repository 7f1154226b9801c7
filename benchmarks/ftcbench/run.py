#!/usr/bin/env python3
"""ftcbench: the repository's benchmark.

    python benchmarks/ftcbench/run.py [--workload W] [--seed S] [--out FILE]

runs every workload (or one), prints every metric by name with its
unit, and exits non-zero if any correctness gate fails.  Each workload
runs in its own fresh subprocess, one after the other: the simulator
is one single-threaded process and the sandbox has two cores, so
nothing here ever runs concurrently with a measurement.

Two clocks.  *Host* metrics (``setup_s``, ``host_pps``,
``peak_rss_mb``, every ``*.self_us_*``, ``trace.*``) are what the
Python simulator costs to run.  *Simulated* metrics (``sim_*``,
``delivered_share`` and every counter-derived per-layer metric) are
what the modelled chain does; for a fixed seed and ``--seconds`` they
repeat exactly.

With ``--trace 0|1`` the script speaks the driver's contract: one
workload, one JSON object on the last line of stdout holding the
end-to-end metrics (0) or the per-layer metrics of a traced repeat (1).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from surface import LAYERS  # noqa: E402
from workloads import FAULTS, WORKLOADS  # noqa: E402

SPEC_FILE = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

TIMED_REPEATS = 5
SETUP_LAUNCHES = 5
#: Untimed warm-up repeat, as a share of a timed repeat's window.
WARMUP_REPEAT_SHARE = 0.10
#: A repeat whose wall clock exceeds its CPU time by more than this was
#: descheduled for part of it.
DISTURBED_RATIO = 1.15
#: Untraced repeats a ``--trace 1`` run takes as its overhead baseline.
TRACE_BASELINE_REPEATS = 2
SMOKE_SCALE = 1 / 20
#: Everything one workload spawns must be over inside this budget.
WORKLOAD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The harness itself could not run (not a correctness verdict)."""


def load_spec() -> Dict[str, Any]:
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {SPEC_FILE}: {exc}") from exc


def window_for(workload, seconds: float, scale: float = 1.0) -> float:
    """Simulated traffic window of one timed repeat: sized so that
    ``TIMED_REPEATS`` repeats take ``seconds`` of host time on the seed
    commit.  A pure function of its arguments -- the same on every
    commit, so the packet count is too."""
    window = workload.window_per_host_s * seconds / TIMED_REPEATS * scale
    return max(window, workload.min_window_s)


# -- subprocesses ---------------------------------------------------------------------

def _worker(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``worker.py`` to completion (killed and reaped at
    ``deadline``); its last stdout line is JSON."""
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER)] + args, capture_output=True,
            text=True, timeout=max(deadline - time.monotonic(), 1.0),
            cwd=str(ROOT))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from exc
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchmarkError(
            f"worker exited {done.returncode}: {' '.join(args)}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchmarkError("worker printed no result") from exc


def probe_setup(name: str, seed: int, window: float, launches: int,
                deadline: float) -> List[float]:
    """``setup_s`` samples: fresh interpreter -> ``import repro`` ->
    chain built and started -> first packet offered."""
    samples = []
    for _ in range(launches):
        started = time.time()
        out = _worker(["--mode", "setup", "--workload", name,
                       "--seed", str(seed), "--window", repr(window)],
                      deadline)
        samples.append(out["first_offer_epoch"] - started)
    return samples


def measure(name: str, seed: int, window: float, timed: int, traced: bool,
            fault: Optional[str], deadline: float) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    warmup = max(window * WARMUP_REPEAT_SHARE, workload.min_window_s)
    args = ["--mode", "measure", "--workload", name, "--seed", str(seed),
            "--window", repr(window), "--warmup-window", repr(warmup),
            "--timed", str(timed), "--traced", str(int(traced)),
            "--trace-out", str(OUT_DIR / f"{name}-seed{seed}.trace.json")]
    if fault:
        args += ["--inject-fault", fault]
    return _worker(args, deadline)


# -- turning repeats into metrics ------------------------------------------------------

def _spread(values: List[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def summarise(name: str, seed: int, out: Dict[str, Any],
              setup_samples: Optional[List[float]],
              host_pps_bound: float) -> Dict[str, Any]:
    """One workload's result: metrics, gates, noise guard."""
    timed, traced = out["timed"], out["traced"]
    repeats = timed + ([traced] if traced else [])
    violations = [f"warm-up: {v}" for v in out["warmup_violations"]]
    for index, repeat in enumerate(repeats):
        label = "traced" if repeat is traced else f"repeat {index}"
        violations += [f"{label}: {v}" for v in repeat["violations"]]
        for key in ("digest", "sim", "counters"):
            if repeat[key] != repeats[0][key]:
                violations.append(
                    f"{label}: {key} differs from repeat 0 -- the simulated "
                    f"outcome is not a function of the seed")
    first = repeats[0]
    measured = timed if setup_samples is not None else [traced]
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "window_s": out["window_s"],
        "correct": not violations, "violations": violations,
        "attempted": sum(r["offered"] for r in measured),
        "failed": sum(r["failed_packets"] for r in measured),
        "info": {"digest": first["digest"], "offered": first["offered"],
                 "released": first["released"],
                 "latency_samples": first["sim"]["latency_samples"],
                 "longest_gap_ms": first["sim"]["longest_gap_ms"],
                 "failed_share": first["sim"]["failed_share"]},
    }
    pps = [r["released"] / r["wall_s"] for r in timed]
    spread = {"host_pps": _spread(pps)}
    if setup_samples is not None:
        spread["setup_s"] = _spread(setup_samples)
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_samples),
            "host_pps": statistics.median(pps),
            "peak_rss_mb": out["peak_rss_mb"],
            **{key: first["sim"][key] for key in (
                "sim_goodput_mpps", "sim_latency_p50_us",
                "sim_latency_p99_us", "sim_outage_ms", "delivered_share")},
        }
    result["noise"] = {
        "repeats": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                     "disturbed": r["wall_s"] > DISTURBED_RATIO * r["cpu_s"]}
                    for r in timed],
        "spread": spread,
        "noisy": spread["host_pps"] > host_pps_bound,
    }
    if traced:
        result["per_layer"] = per_layer_metrics(
            traced, statistics.median(r["wall_s"] for r in timed))
    return result


def per_layer_metrics(traced: Dict[str, Any],
                      untraced_wall_s: float) -> Dict[str, float]:
    trace, released = traced["trace"], max(traced["released"], 1)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_pkt"] = \
            trace["self_s"][layer] / released * 1e6
        metrics[f"{layer}.calls_per_pkt"] = trace["calls"][layer] / released
    steps = max(trace["steps"], 1)
    metrics["sim.engine.events_per_pkt"] = trace["steps"] / released
    metrics["sim.engine.self_us_per_event"] = \
        trace["self_s"]["sim.engine"] / steps * 1e6
    metrics["core.piggyback.bytes_per_msg"] = trace["bytes_per_msg"]
    metrics.update(traced["counters"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall_s
    metrics["trace.covered_share"] = \
        sum(trace["self_s"].values()) / traced["wall_s"]
    metrics["trace.span_cost_us"] = trace["span_cost_us"]
    metrics["trace.boundaries_missing"] = len(trace["boundaries_missing"])
    return metrics


def run_workload(name: str, seed: int, seconds: float, *, end_to_end: bool,
                 traced: bool, scale: float = 1.0, timed: int = TIMED_REPEATS,
                 launches: int = SETUP_LAUNCHES, fault: Optional[str] = None,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    window = window_for(WORKLOADS[name], seconds, scale)
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    setup = (probe_setup(name, seed, window, launches, deadline)
             if end_to_end else None)
    out = measure(name, seed, window, timed, traced, fault, deadline)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "host_pps")
    return summarise(name, seed, out, setup, bound)


# -- output ------------------------------------------------------------------------------

def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_result(result: Dict[str, Any], units: Dict[str, str]) -> None:
    name = result["workload"]
    if not result["correct"]:
        print(f"{name}  correct  0")
        for violation in result["violations"]:
            print(f"{name}  GATE FAILED: {violation}")
        return
    print(f"{name}  correct  1   (seed {result['seed']}, window "
          f"{result['window_s'] * 1e3:g} ms simulated, digest "
          f"{result['info']['digest']}, {result['info']['offered']} offered, "
          f"{result['info']['latency_samples']} latency samples, "
          f"failed_share {result['info']['failed_share']:.4f})")
    for group in ("end_to_end", "per_layer"):
        for metric, value in result.get(group, {}).items():
            print(f"{name}  {metric}  {value:.6g}  {units.get(metric, '?')}")
    noise = result["noise"]
    disturbed = sum(r["disturbed"] for r in noise["repeats"])
    spreads = "  ".join(f"{metric} {value:.2%}"
                        for metric, value in noise["spread"].items())
    print(f"{name}  noise: spread over repeats: {spreads}; "
          f"{disturbed} disturbed repeat(s)"
          + ("; NOISY -- a host-time comparison on this run is unresolved, "
             "not unchanged" if noise["noisy"] else ""))


def contract_line(result: Dict[str, Any], group: str,
                  units: Dict[str, str]) -> str:
    metrics = {}
    if result["correct"]:
        metrics = {metric: {"value": value, "unit": units[metric]}
                   for metric, value in result[group].items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def check_emitted(result: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Exactly the metric names BENCHMARK.json declares are emitted."""
    problems = []
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"] for m in spec[group]}
        emitted = set(result.get(group, {}))
        if declared != emitted:
            problems.append(
                f"{result['workload']} {group}: missing "
                f"{sorted(declared - emitted)}, undeclared "
                f"{sorted(emitted - declared)}")
    return problems


def environment() -> Dict[str, Any]:
    """Where and on what the numbers were taken, stamped at run time.
    ``src_tree`` names the program measured whatever the commit is."""
    def git(*args: str) -> str:
        try:
            done = subprocess.run(["git", *args], capture_output=True,
                                  text=True, cwd=str(ROOT), timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    return {"git_head": git("rev-parse", "HEAD"),
            "src_tree": git("rev-parse", "HEAD:src"),
            "src_dirty": git("status", "--porcelain", "--", "src") != "",
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine()}


def agreement(sets: List[List[Dict[str, Any]]],
              spec: Dict[str, Any]) -> List[str]:
    """Do complete sets of runs of one commit agree?  Host metrics
    within their bounds; simulated metrics, digests, span counts and
    counters exactly."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    host_time = {"setup_s", "host_pps", "peak_rss_mb"}
    problems = []
    for results in zip(*sets):
        base = results[0]
        for other in results[1:]:
            where = base["workload"]
            if other["info"]["digest"] != base["info"]["digest"]:
                problems.append(f"{where}: digests differ")
            for metric, value in base["end_to_end"].items():
                again = other["end_to_end"][metric]
                if metric in host_time:
                    if abs(again - value) > bounds[metric] * value:
                        problems.append(
                            f"{where}: {metric} {value:.6g} vs {again:.6g} "
                            f"is outside its bound {bounds[metric]:.0%}")
                elif again != value:
                    problems.append(f"{where}: {metric} {value!r} vs "
                                    f"{again!r} (must be exact)")
            for metric, value in base["per_layer"].items():
                exact = not (metric.endswith(".self_us_per_pkt")
                             or metric.endswith(".self_us_per_event")
                             or metric.startswith("trace."))
                if exact and other["per_layer"][metric] != value:
                    problems.append(f"{where}: {metric} {value!r} vs "
                                    f"{other['per_layer'][metric]!r} "
                                    f"(must be exact)")
    return problems


# -- command line ------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 1 is the hold-out)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="host seconds the timed repeats are sized to "
                             "fill on the seed commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: 0 = end-to-end metrics, "
                             "1 = per-layer metrics of a traced repeat")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the full result set(s) here as JSON")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the whole suite this many times and check "
                             "that the sets agree")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one timed + one traced repeat: "
                             "gates and metric names only")
    parser.add_argument("--inject-fault", choices=sorted(FAULTS),
                        default=None,
                        help="self-test: seed a violation the gates must "
                             "catch")
    args = parser.parse_args(argv)
    units = units_of(spec)
    names = [args.workload] if args.workload else list(WORKLOADS)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        traced = bool(args.trace)
        result = run_workload(
            args.workload, args.seed, args.seconds, end_to_end=not traced,
            traced=traced, fault=args.inject_fault, spec=spec,
            timed=TRACE_BASELINE_REPEATS if traced else TIMED_REPEATS)
        print_result(result, units)
        print(contract_line(result, "per_layer" if traced else "end_to_end",
                            units))
        return 0 if result["correct"] else 1

    sizing: Dict[str, Any] = {}
    if args.smoke:
        sizing = {"scale": SMOKE_SCALE, "timed": 1, "launches": 1}
    sets, problems = [], []
    for _ in range(args.sets):
        results = []
        for name in names:
            result = run_workload(
                name, args.seed, args.seconds, end_to_end=True, traced=True,
                fault=args.inject_fault, spec=spec, **sizing)
            print_result(result, units)
            if not result["correct"]:
                problems.append(f"{name}: correctness gates failed")
            elif args.smoke:
                problems += check_emitted(result, spec)
            results.append(result)
        sets.append(results)
    if args.sets > 1 and not problems:
        problems += agreement(sets, spec)
    if args.smoke:
        print("smoke: numbers not comparable")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"environment": environment(), "seed": args.seed,
             "run_seconds": args.seconds, "smoke": args.smoke,
             "sets": sets}, indent=1) + "\n")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"ftcbench: {exc}", file=sys.stderr)
        sys.exit(2)
