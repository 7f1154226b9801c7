"""Control-plane golden: seven seeded scenarios against a committed record.

The control plane (orchestrator, ensemble, recovery, reconfiguration,
brownout journaling) is where the order of events is observable: the
journal's ``seq``, the flight recorder's ``ref``/``parent_ref`` and the
simulator's final ``_eid`` all record it.  This test pins, for each
case, every member's journal, the chain-side fence's applied commands,
the election log, the failure history, every reconfiguration report,
the recovery timeline, the sha256 of the flight dump and of the Chrome
trace, the violations and the final ``_eid`` -- so a refactor of the
command path that moves a single event fails here.

Packet, log and lock ids are process-global counters, so the seven cases
run in one fresh interpreter, always in the same order
(``python tests/test_ctrlplane_golden.py --child`` prints the JSON).

Regenerate -- only when the control plane's behaviour is meant to
change -- with ``PYTHONPATH=src python tests/test_ctrlplane_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ctrlplane.json"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _scenarios() -> dict:
    from repro.chaos import Scenario, Step
    from repro.chaos.scenario import monitors
    from repro.chaos.plan import FaultSpec
    from repro.chaos.soak import (
        SOAK_COSTS,
        OverloadSpec,
        ctrlplane_scenario,
        overload_scenario,
        reconfig_scenario,
    )

    return {
        "ctrlplane-0": ctrlplane_scenario(0),
        "ctrlplane-1": ctrlplane_scenario(1),
        "reconfig-orch3": reconfig_scenario(0, orchestrators=3),
        "reconfig-crashes": reconfig_scenario(0, crashes=True),
        "overload-crash-orch3": overload_scenario(
            0, spec=OverloadSpec.parse("crash=1,orch=3")),
        # Two members of one f=1 group crash together: the leader
        # journals ``abandoned`` and the chain degrades.
        "abandoned-ch3": Scenario(
            chain=monitors(3), f=1, seed=0, costs=SOAK_COSTS,
            duration_s=40e-3, drain_s=40e-3, rate_pps=2e4,
            orchestrators=3, heartbeat_interval_s=1e-3,
            steps=(Step(10e-3, crash=1), Step(10e-3, crash=2))),
        # The leader crashes from inside a recovery-phase hook: the
        # phase is emitted before the hook runs, so the hook's own
        # events (step-down, fault) follow it in the timeline and the
        # ring alike, and that order is pinned.
        "leader-crash-mid-recovery": Scenario(
            chain=monitors(3), f=1, seed=0, costs=SOAK_COSTS,
            duration_s=40e-3, drain_s=40e-3, rate_pps=2e4,
            orchestrators=3, heartbeat_interval_s=1e-3,
            faults=(FaultSpec(kind="orch-crash", phase="fetching",
                              restart_after_s=30e-3),),
            steps=(Step(10e-3, crash=1, expect="recovered"),)),
    }


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def snapshot(scenario) -> dict:
    """Run one scenario and reduce it to what the control plane decided."""
    from repro.chaos import run
    from repro.flight import FlightRecorder
    from repro.telemetry import Telemetry

    flight = FlightRecorder()
    telemetry = Telemetry(sample_every=50, flight=flight)
    out = run(scenario, telemetry=telemetry)
    ensemble = out.ensemble
    members = [] if ensemble is None else ensemble.members
    gate = out.chain.gate
    return {
        "journals": [[[e.epoch, e.seq, e.step, list(e.positions), e.t,
                       e.detail] for e in member.journal.entries()]
                     for member in members],
        "applied": [] if gate is None else [
            [c.epoch, c.kind, list(c.positions), c.detail, c.t]
            for c in gate.applied],
        "election_log": ([] if ensemble is None
                         else [list(entry) for entry in ensemble.election_log]),
        "failures": [[list(e.positions), e.detected_at, e.detection_delay_s,
                      e.recovered] for e in out.failures],
        "reconfigs": [[r.op.kind if r.op is not None else None, r.committed,
                       r.aborted, r.resumed, r.prepare_s, r.drain_s,
                       r.transfer_s, r.switch_s, r.total_s, r.held_packets,
                       r.detail] for r in out.reconfigs],
        "timeline": telemetry.timeline.as_dicts(),
        "flight_sha256": _sha256(flight.dump(telemetry=telemetry)),
        "trace_sha256": _sha256(telemetry.export_chrome()),
        "violations": [str(v) for v in out.violations],
        "final_eid": out.sim._eid,
    }


def child() -> dict:
    return {name: snapshot(sc) for name, sc in _scenarios().items()}


@pytest.fixture(scope="module")
def current() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_match_the_committed_golden(current, golden):
    assert sorted(current) == sorted(golden)
    for name in golden:
        for key in golden[name]:
            assert current[name][key] == golden[name][key], (name, key)


def test_every_journal_step_is_journaled_by_some_case(golden):
    from repro.orchestration.journal import JOURNAL_STEPS

    journaled = {entry[2] for case in golden.values()
                 for journal in case["journals"] for entry in journal}
    assert journaled == set(JOURNAL_STEPS), (
        f"never journaled: {sorted(set(JOURNAL_STEPS) - journaled)}")


def test_every_case_is_clean(golden):
    for name, case in golden.items():
        assert case["violations"] == [], name


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(child()))
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(child(), indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN}")
