"""Benchmark regression gate (PROTOCOL.md §13.3).

Compares a directory of current ``BENCH_<scenario>.json`` reports
against committed baselines and decides whether the build regressed.
Pure stdlib on purpose: the CI gate must not import the simulator.

Gate semantics, per scenario:

* scenario present in the baselines but missing from the current run
  -- **failure** (a deleted benchmark hides regressions);
* baseline headline missing or zero -- **warning**, never a failure
  (there is nothing sound to divide by; the new number becomes the
  baseline on the next commit);
* ``current < baseline * (1 - tolerance)`` -- **failure**;
* both reports describe the same run (equal ``config`` and seed) and a
  stage's ``calls`` differ -- **failure** naming the stage and both
  counts: call counts are a pure function of the seed, so this catches
  a probe that moved, whatever the runner's clock does.  Different
  configurations are a note, never a failure;
* faster than baseline beyond tolerance -- ``improved`` (informational;
  commit the new baseline so the gate tightens);
* otherwise -- ``ok``.

Per-stage ``us_per_packet`` deltas are annotations, not gates: wall
time per stage is noisy on shared CI runners, but a stage that doubles
while the headline stays flat is exactly the early warning the
ROADMAP's vectorization work needs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_TOLERANCE",
    "compare_reports",
    "compare_dirs",
    "load_reports",
    "render_markdown",
    "headline_pps",
]

#: Relative slowdown tolerated before the gate fails.  Local
#: like-for-like comparisons use this; CI passes a looser value
#: (runner variance; see PROTOCOL.md §13.3).
DEFAULT_TOLERANCE = 0.15

#: Stage deltas smaller than this (relative) are not worth printing.
_STAGE_NOTE_THRESHOLD = 0.25


def headline_pps(report: Dict) -> float:
    """The gated number: simulated packets per wall-clock second."""
    results = report.get("results", {})
    if isinstance(results, dict):
        return float(results.get("sim_pps_per_wall_s", 0.0) or 0.0)
    return 0.0


def _stage_notes(baseline: Dict, current: Dict) -> List[str]:
    notes = []
    base_stages = baseline.get("stages") or {}
    cur_stages = current.get("stages") or {}
    for stage, cur in cur_stages.items():
        base = base_stages.get(stage)
        if not base:
            continue
        b = float(base.get("us_per_packet", 0.0) or 0.0)
        c = float(cur.get("us_per_packet", 0.0) or 0.0)
        if b <= 0.0:
            continue
        rel = (c - b) / b
        if abs(rel) >= _STAGE_NOTE_THRESHOLD:
            notes.append(f"{stage} {rel:+.0%} ({b:.2f} -> {c:.2f} us/pkt)")
    return notes


def _call_count_check(baseline: Dict, current: Dict):
    """``(verdict, notes)`` of the exact stage-call gate; the verdict is
    ``"identical"``, ``"differ"`` or ``None`` (not the same run)."""
    runs = [(report.get("config"), (report.get("env") or {}).get("seed"))
            for report in (baseline, current)]
    if runs[0][0] is None or runs[1][0] is None:
        return None, []
    if runs[0] != runs[1]:
        return None, ["run configurations differ; stage call counts "
                      "not compared"]
    base_stages = baseline.get("stages") or {}
    cur_stages = current.get("stages") or {}
    notes = []
    for stage in {**base_stages, **cur_stages}:
        before = int((base_stages.get(stage) or {}).get("calls", 0) or 0)
        after = int((cur_stages.get(stage) or {}).get("calls", 0) or 0)
        if before != after:
            notes.append(f"{stage} calls {before} -> {after}")
    return ("differ" if notes else "identical"), notes


def compare_reports(scenario: str, baseline: Optional[Dict],
                    current: Optional[Dict],
                    tolerance: float = DEFAULT_TOLERANCE) -> Dict:
    """One comparison row; ``status`` decides the gate."""
    if current is None:
        return {"scenario": scenario, "status": "missing",
                "baseline_pps": headline_pps(baseline) if baseline else None,
                "current_pps": None, "ratio": None, "calls": None,
                "notes": ["scenario present in baselines but not in "
                          "the current run"]}
    if baseline is None:
        return {"scenario": scenario, "status": "new",
                "baseline_pps": None,
                "current_pps": headline_pps(current), "ratio": None,
                "calls": None,
                "notes": ["no committed baseline; commit this report"]}
    base_pps = headline_pps(baseline)
    cur_pps = headline_pps(current)
    if base_pps <= 0.0:
        return {"scenario": scenario, "status": "warning",
                "baseline_pps": base_pps, "current_pps": cur_pps,
                "ratio": None, "calls": None,
                "notes": ["baseline headline is zero/absent; cannot gate"]}
    ratio = cur_pps / base_pps
    notes = _stage_notes(baseline, current)
    if ratio < 1.0 - tolerance:
        status = "regression"
        notes.insert(0, f"headline {ratio - 1.0:+.1%} exceeds "
                        f"-{tolerance:.0%} tolerance")
    elif ratio > 1.0 + tolerance:
        status = "improved"
    else:
        status = "ok"
    calls, call_notes = _call_count_check(baseline, current)
    if calls == "differ" and status != "regression":
        status = "calls-differ"
    return {"scenario": scenario, "status": status,
            "baseline_pps": base_pps, "current_pps": cur_pps,
            "ratio": round(ratio, 4), "calls": calls,
            "notes": call_notes + notes}


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


def compare_dirs(baseline_dir: str, current_dir: str,
                 tolerance: float = DEFAULT_TOLERANCE) -> Dict:
    """Compare two report directories; ``failed`` gates the build."""
    baselines = load_reports(baseline_dir)
    currents = load_reports(current_dir)
    rows = [compare_reports(s, baselines.get(s), currents.get(s), tolerance)
            for s in sorted(set(baselines) | set(currents))]
    return {
        "tolerance": tolerance,
        "rows": rows,
        "failed": any(r["status"] in ("regression", "missing")
                      or r["calls"] == "differ" for r in rows),
    }


_STATUS_MARKS = {"ok": "✓", "improved": "▲", "new": "＋",
                 "warning": "⚠", "regression": "✗", "missing": "✗",
                 "calls-differ": "✗"}


def render_markdown(outcome: Dict) -> str:
    """The CI step-summary table for one :func:`compare_dirs` outcome."""
    lines = ["### Perf regression gate",
             "",
             f"tolerance: -{outcome['tolerance']:.0%} on headline "
             "simulated pps / wall s",
             "",
             "| scenario | status | baseline pps | current pps | Δ |"
             " notes |",
             "|---|---|---:|---:|---:|---|"]
    for row in outcome["rows"]:
        mark = _STATUS_MARKS.get(row["status"], "?")
        base = ("-" if row["baseline_pps"] is None
                else f"{row['baseline_pps']:,.0f}")
        cur = ("-" if row["current_pps"] is None
               else f"{row['current_pps']:,.0f}")
        delta = ("-" if row["ratio"] is None
                 else f"{row['ratio'] - 1.0:+.1%}")
        notes = "; ".join(row["notes"]) or "-"
        lines.append(f"| {row['scenario']} | {mark} {row['status']} "
                     f"| {base} | {cur} | {delta} | {notes} |")
    counted = [row for row in outcome["rows"] if row["calls"]]
    differ = [row["scenario"] for row in counted if row["calls"] == "differ"]
    lines += ["", "stage call counts (exact where both sides are the same "
                  "run): " + (f"**differ** on {', '.join(differ)}" if differ
                              else f"identical on {len(counted)} of "
                                   f"{len(outcome['rows'])} scenario(s)")]
    verdict = "**FAILED**" if outcome["failed"] else "passed"
    lines += ["", f"gate {verdict}"]
    return "\n".join(lines)
