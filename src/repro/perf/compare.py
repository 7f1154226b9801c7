"""Benchmark regression gate (PROTOCOL.md §13.3).

Compares a directory of current ``BENCH_<scenario>.json`` reports
against committed baselines.  Every number in a report is a count,
exact for its configuration and seed, so the gate asks for equality
and reads no clock.  Pure stdlib on purpose: the CI gate must not
import the simulator.

Per scenario, the row's ``status`` is:

* ``missing`` -- in the baselines but not in the current run
  (**failure**: a deleted benchmark hides regressions);
* ``new`` -- in the current run only (a note: commit the report);
* ``incomparable`` -- ``config`` or seed differ (**failure**: nothing
  would be gated);
* ``differ`` -- some ``results`` value or stage ``calls`` differ
  (**failure**; each note names the field and both values);
* ``identical`` -- otherwise.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

__all__ = [
    "compare_reports",
    "compare_dirs",
    "load_reports",
    "render_markdown",
]

#: Statuses that fail the gate.
FAILING = ("missing", "incomparable", "differ")


def _run_of(report: Dict):
    return report.get("config"), (report.get("env") or {}).get("seed")


def _differences(baseline: Dict, current: Dict) -> List[str]:
    """One note per ``results`` value or stage ``calls`` that differs."""
    notes = []
    base_results = baseline.get("results") or {}
    cur_results = current.get("results") or {}
    for key in {**base_results, **cur_results}:
        before, after = base_results.get(key), cur_results.get(key)
        if before != after:
            notes.append(f"results.{key} {before} -> {after}")
    base_stages = baseline.get("stages") or {}
    cur_stages = current.get("stages") or {}
    for stage in {**base_stages, **cur_stages}:
        before = (base_stages.get(stage) or {}).get("calls", 0)
        after = (cur_stages.get(stage) or {}).get("calls", 0)
        if before != after:
            notes.append(f"{stage} calls {before} -> {after}")
    return notes


def compare_reports(scenario: str, baseline: Optional[Dict],
                    current: Optional[Dict]) -> Dict:
    """One comparison row; ``status`` decides the gate."""
    if current is None:
        status, notes = "missing", ["scenario present in baselines but not "
                                    "in the current run"]
    elif baseline is None:
        status, notes = "new", ["no committed baseline; commit this report"]
    elif _run_of(baseline) != _run_of(current):
        status, notes = "incomparable", ["config or seed differ; nothing "
                                         "is gated"]
    else:
        notes = _differences(baseline, current)
        status = "differ" if notes else "identical"
    return {"scenario": scenario, "status": status, "notes": notes}


def load_reports(directory: str) -> Dict[str, Dict]:
    """scenario -> report for every ``BENCH_*.json`` in ``directory``."""
    reports: Dict[str, Dict] = {}
    if not os.path.isdir(directory):
        return reports
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        with open(os.path.join(directory, entry)) as handle:
            report = json.load(handle)
        scenario = report.get("scenario") or entry[len("BENCH_"):-len(".json")]
        reports[scenario] = report
    return reports


def compare_dirs(baseline_dir: str, current_dir: str) -> Dict:
    """Compare two report directories; ``failed`` gates the build."""
    baselines = load_reports(baseline_dir)
    currents = load_reports(current_dir)
    rows = [compare_reports(s, baselines.get(s), currents.get(s))
            for s in sorted(set(baselines) | set(currents))]
    return {"rows": rows,
            "failed": any(r["status"] in FAILING for r in rows)}


_STATUS_MARKS = {"identical": "✓", "new": "＋", "differ": "✗",
                 "missing": "✗", "incomparable": "✗"}


def render_markdown(outcome: Dict) -> str:
    """The CI step-summary table for one :func:`compare_dirs` outcome."""
    lines = ["### Perf regression gate",
             "",
             "results and stage calls are gated exactly "
             "(same config and seed)",
             "",
             "| scenario | status | notes |",
             "|---|---|---|"]
    for row in outcome["rows"]:
        mark = _STATUS_MARKS.get(row["status"], "?")
        notes = "; ".join(row["notes"]) or "-"
        lines.append(f"| {row['scenario']} | {mark} {row['status']} "
                     f"| {notes} |")
    identical = sum(row["status"] == "identical" for row in outcome["rows"])
    verdict = "**FAILED**" if outcome["failed"] else "passed"
    lines += ["", f"identical on {identical} of {len(outcome['rows'])} "
                  "scenario(s)", "", f"gate {verdict}"]
    return "\n".join(lines)
