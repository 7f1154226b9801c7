"""Scenario bench runner and the ``BENCH_<scenario>.json`` schema (v2).

Schema version 2 (PROTOCOL.md §13.2)::

    {
      "schema_version": 2,
      "benchmark": "perfscope scenario suite",
      "scenario": "<name>",
      "env": {"python": "3.12.1", "platform": "Linux-...-x86_64",
              "git_sha": "<sha or null>", "seed": 0, "quick": false},
      "config": {...scenario knobs...},
      "results": {"offered": N, "released": N, "wall_s": F,
                  "sim_pps_per_wall_s": N, ...scenario extras...},
      "stages": {"<stage>": {"calls": N, "wall_s": F,
                             "us_per_packet": F, "calls_per_packet": F}}
    }

Each scenario is a :class:`~repro.chaos.scenario.Scenario` run by the
one audited loop; a pass whose final audit is not clean raises, so no
report is written for it.  Each scenario runs **twice**: an unprofiled
pass whose wall time is the headline (``sim_pps_per_wall_s``), then a
profiled pass for the per-stage breakdown -- so profiling overhead
never pollutes the gated number.  Both passes use the same seed;
virtual-time results are asserted identical across the two (a free
determinism check).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Dict, Iterable, List, Optional

from .profiler import StageProfiler
from .scenarios import run_scenario, scenario_names

__all__ = [
    "SCHEMA_VERSION",
    "bench_scenario",
    "run_suite",
    "write_report",
    "env_metadata",
    "git_sha",
]

SCHEMA_VERSION = 2


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def env_metadata(seed: int, quick: bool) -> Dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "quick": quick,
    }


def bench_scenario(name: str, seed: int = 0, quick: bool = False) -> Dict:
    """Run one scenario (unprofiled headline + profiled breakdown)."""
    t0 = time.perf_counter()
    plain = run_scenario(name, seed=seed, quick=quick, profiler=None)
    wall_s = time.perf_counter() - t0

    profiler = StageProfiler()
    profiled = run_scenario(name, seed=seed, quick=quick, profiler=profiler)
    if (profiled["offered"], profiled["released"]) != (
            plain["offered"], plain["released"]):
        raise AssertionError(
            f"{name}: profiling perturbed the simulation "
            f"(unprofiled offered/released {plain['offered']}/"
            f"{plain['released']}, profiled {profiled['offered']}/"
            f"{profiled['released']})")

    packets = plain["released"]
    results = {key: value for key, value in plain.items() if key != "config"}
    results["wall_s"] = round(wall_s, 4)
    results["sim_pps_per_wall_s"] = round(plain["released"] / wall_s)
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "perfscope scenario suite "
                     "(simulated packets / wall s, per-stage attribution)",
        "scenario": name,
        "env": env_metadata(seed, quick),
        "config": plain["config"],
        "results": results,
        "stages": profiler.report(packets=packets),
    }


def write_report(report: Dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report['scenario']}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return path


def run_suite(names: Optional[Iterable[str]] = None, seed: int = 0,
              quick: bool = False, out_dir: Optional[str] = None,
              echo=print) -> List[Dict]:
    """Run the suite; writes ``BENCH_<scenario>.json`` per scenario."""
    names = list(names) if names is not None else scenario_names()
    reports = []
    for name in names:
        echo(f"[bench] {name} (seed={seed}{', quick' if quick else ''}) ...")
        report = bench_scenario(name, seed=seed, quick=quick)
        reports.append(report)
        results = report["results"]
        echo(f"[bench]   {results['sim_pps_per_wall_s']:,} sim pps/wall s "
             f"({results['released']}/{results['offered']} released, "
             f"{results['wall_s']:.2f}s wall)")
        if out_dir is not None:
            path = write_report(report, out_dir)
            echo(f"[bench]   wrote {path}")
    return reports


def stage_table(report: Dict) -> str:
    """Plain-text per-stage table for one report (CLI output)."""
    stages = report.get("stages") or {}
    if not stages:
        return "(no stage data)"
    lines = [f"{'stage':<22}{'calls':>10}{'wall ms':>10}"
             f"{'us/pkt':>10}{'calls/pkt':>11}"]
    for stage, entry in stages.items():
        lines.append(
            f"{stage:<22}{entry.get('calls', 0):>10}"
            f"{entry.get('wall_s', 0.0) * 1e3:>10.2f}"
            f"{entry.get('us_per_packet', 0.0):>10.2f}"
            f"{entry.get('calls_per_packet', 0.0):>11.3f}")
    return "\n".join(lines)
