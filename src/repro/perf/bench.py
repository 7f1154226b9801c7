"""Scenario bench runner and the ``BENCH_<scenario>.json`` schema (v3).

Schema version 3 (PROTOCOL.md §13.2)::

    {
      "schema_version": 3,
      "benchmark": "perfscope scenario suite (...)",
      "scenario": "<name>",
      "env": {"python": "3.12.1", "platform": "Linux-...-x86_64",
              "git_sha": "<sha or null>", "seed": 0, "quick": false},
      "config": {...scenario knobs...},
      "results": {"offered": N, "released": N, "events": N,
                  ...scenario extras...},
      "stages": {"<stage>": {"calls": N, "calls_per_packet": F}}
    }

Every number is a count, exact for a (scenario, seed, quick): one
counted pass per scenario, run by the one audited loop; a pass whose
final audit is not clean raises, so no report is written for it.
``events`` is the number of events the run scheduled -- an exact
tripwire for an event storm.  Host time is ftcbench's to measure.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
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

SCHEMA_VERSION = 3


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
    """Run one scenario with a counting profiler; the BENCH v3 report."""
    profiler = StageProfiler()
    result = run_scenario(name, seed=seed, quick=quick, profiler=profiler)
    config = result.pop("config")
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "perfscope scenario suite "
                     "(exact counts: results and per-stage calls)",
        "scenario": name,
        "env": env_metadata(seed, quick),
        "config": config,
        "results": result,
        "stages": profiler.report(packets=result["released"]),
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
        echo(f"[bench]   offered {results['offered']}, released "
             f"{results['released']}, events {results['events']}")
        if out_dir is not None:
            path = write_report(report, out_dir)
            echo(f"[bench]   wrote {path}")
    return reports


def stage_table(stages: Dict) -> str:
    """Plain-text table of a ``StageProfiler.report`` (CLI output)."""
    if not stages:
        return "(no stage data)"
    lines = [f"{'stage':<22}{'calls':>10}{'calls/pkt':>11}"]
    for stage, entry in stages.items():
        lines.append(f"{stage:<22}{entry.get('calls', 0):>10}"
                     f"{entry.get('calls_per_packet', 0.0):>11.3f}")
    return "\n".join(lines)
