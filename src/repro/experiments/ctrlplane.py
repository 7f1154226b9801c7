"""Control-plane failover: recovery delay under orchestrator faults.

Figure-13-style companion table for the replicated control plane
(PROTOCOL.md §9).  A Ch-3 chain loses its middle middlebox at a fixed
instant while the orchestrator ensemble itself is attacked:

* **baseline** -- healthy 3-member ensemble, no control-plane fault;
* **leader-crash (pre-detect)** -- the leader crashes 1 ms after the
  data-plane failure, before its monitor confirms it; the next leader
  must detect and recover from scratch.
* **leader-crash (mid-recovery)** -- the leader crashes while the
  recovery it is driving sits in the fetching phase; the successor
  replays the journal and resumes the same recovery.
* **leader-partition (mid-recovery)** -- as above, but the leader is
  partitioned from every peer instead of crashing; its lease expires,
  a successor takes over, and the stale leader's later commands are
  fenced by the epoch gate.

Columns decompose the failover: detection delay (failure -> confirmed),
election delay (control-plane fault -> next ``election/elected``),
resume delay (elected -> ``recovery/committed``), and the end-to-end total
(failure -> committed).  The paper measures only the baseline column
(§7.5); the others quantify the added cost of losing the orchestrator
at the worst possible moments.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..chaos.plan import FaultSpec
from ..chaos.scenario import Scenario, Step, run as run_scenario
from ..core.costs import CostModel
from ..metrics import confidence_interval95
from ..telemetry import Telemetry
from .runner import ExperimentResult, quick_mode

#: The chain failure every scenario injects (middle of Ch-3).
FAIL_POSITION = 1
T_FAIL = 20e-3

#: Scenario -> the control-plane fault riding on the chain failure: a
#: crashed leader restarts after 30 ms, a partition heals after 15 ms.
SCENARIOS = {
    "baseline": (),
    "leader-crash (pre-detect)": (FaultSpec(
        kind="orch-crash", at_s=T_FAIL + 1e-3, restart_after_s=30e-3),),
    "leader-crash (mid-recovery)": (FaultSpec(
        kind="orch-crash", phase="fetching", restart_after_s=30e-3),),
    "leader-partition (mid-recovery)": (FaultSpec(
        kind="orch-partition", phase="fetching", duration_s=15e-3),),
}


def point(scenario: str, seed: int) -> Scenario:
    """Ch-3 in one region under a 3-member ensemble (tight leases keep
    failover well inside the window), deterministic service costs so
    the table isolates protocol delays."""
    return Scenario(
        chain_length=3, seed=seed, costs=CostModel(cycle_jitter_frac=0.0),
        duration_s=0.2, rate_pps=2e4, orchestrators=3,
        heartbeat_interval_s=1e-3, region="core",
        faults=SCENARIOS[scenario],
        steps=(Step(T_FAIL, crash=FAIL_POSITION, expect="recovered"),))


def _first(telemetry: Telemetry, component: str, kind: str,
           after: float = 0.0) -> Optional[float]:
    for event in telemetry.timeline.events:
        if (event.component == component and event.kind == kind
                and event.t >= after):
            return event.t
    return None


def _one_trial(scenario: str, seed: int) -> Dict[str, float]:
    telemetry = Telemetry(max_trace_events=0)
    out = run_scenario(point(scenario, seed), telemetry=telemetry).checked()
    # The step's post-condition held, so both events are on the timeline.
    confirmed = _first(telemetry, "orch", "confirmed", after=T_FAIL)
    committed = _first(telemetry, "recovery", "committed", after=T_FAIL)
    result = {
        "detect": confirmed - T_FAIL,
        "elect": 0.0,
        "total": committed - T_FAIL,
        "epochs": float(len(out.ensemble.election_log)),
        "fenced": float(out.ensemble.gate.fenced_commands),
    }
    resume_from = confirmed
    if scenario != "baseline":
        # Run.faults also lists the step's own chain crash.
        fired = [t for t, what in out.faults
                 if what != f"crash p{FAIL_POSITION}"]
        if not fired:
            raise AssertionError(
                f"{scenario} seed={seed}: control-plane fault never fired")
        fault_at = fired[0]
        elected = _first(telemetry, "election", "elected", after=fault_at)
        if elected is None:
            raise AssertionError(
                f"{scenario} seed={seed}: no successor elected")
        result["elect"] = elected - fault_at
        resume_from = max(resume_from, elected)
    result["resume"] = max(0.0, committed - resume_from)
    return result


def run(trials: int = None) -> ExperimentResult:
    if trials is None:
        trials = 2 if quick_mode() else 5
    result = ExperimentResult(
        experiment="Control-plane failover: Ch-3 recovery under "
                   "orchestrator faults (3-member ensemble)",
        headers=["Scenario", "Detect (ms)", "Elect (ms)", "Resume (ms)",
                 "Total (ms)", "Epochs", "Fenced"])
    for scenario in SCENARIOS:
        samples = [_one_trial(scenario, seed) for seed in range(trials)]
        detect_ms, _ = confidence_interval95(
            [s["detect"] * 1e3 for s in samples])
        elect_ms, _ = confidence_interval95(
            [s["elect"] * 1e3 for s in samples])
        resume_ms, _ = confidence_interval95(
            [s["resume"] * 1e3 for s in samples])
        total_ms, total_hw = confidence_interval95(
            [s["total"] * 1e3 for s in samples])
        epochs = sum(s["epochs"] for s in samples) / len(samples)
        fenced = sum(s["fenced"] for s in samples) / len(samples)
        result.add(scenario, f"{detect_ms:.1f}",
                   "-" if scenario == "baseline" else f"{elect_ms:.1f}",
                   f"{resume_ms:.1f}", f"{total_ms:.1f} +/- {total_hw:.1f}",
                   f"{epochs:.1f}", f"{fenced:.1f}")
    result.notes.append(
        "Elect spans control-plane fault -> successor's leader-elected "
        "event; Resume spans max(confirmed, elected) -> recovery "
        "committed.  Mid-recovery scenarios resume from the replicated "
        "command journal rather than restarting detection.")
    result.notes.append(
        "The partition scenario leaves the old leader running; its "
        "post-partition commands die before taking effect -- the "
        "quorum-less journal append aborts them, and any that reach "
        "the chain under a superseded epoch land in the Fenced column.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
