"""Fault-schedule golden: what every fault path injects, against a record.

Every fault reaches a chain through the run's one
:class:`~repro.chaos.plan.FaultInjector`: the
:class:`~repro.chaos.ChaosMonkey` samples specs into it on the
``chaos-monkey`` stream, and a scripted
:class:`~repro.chaos.plan.FaultSpec` fires at its time or phase.  This
test pins, for short monkey soaks (Ch-2..4, f = 1..2, seeds 0..3), two
control-plane soaks, one monkey drawing every other samplable kind, and
one scripted spec per fault kind: every injected fault (time and
description), the released count, and how many failures were detected
and recovered -- so a change to how a fault is sampled or applied that
moves a single draw fails here.

Packet ids are process-global counters, so the cases run in one fresh
interpreter, always in the same order
(``python tests/test_chaos_schedules_golden.py --child`` prints the JSON).

Regenerate -- only when fault injection is meant to change -- with
``PYTHONPATH=src python tests/test_chaos_schedules_golden.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chaos_schedules.json"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _scripted(kind: str):
    """One short scenario driving a single scripted spec of ``kind``."""
    from repro.chaos import Scenario
    from repro.chaos.plan import FaultSpec
    from repro.chaos.scenario import Step, monitors
    from repro.chaos.soak import SOAK_COSTS
    from repro.core.reconfig import ReconfigOp

    crash = FaultSpec(kind="crash", at_s=6e-3, position=1)
    rescale = Step(10e-3, op=ReconfigOp(kind="rescale", position=1,
                                        n_threads=3))
    common = dict(chain=monitors(3), f=1, seed=0, costs=SOAK_COSTS,
                  duration_s=30e-3, drain_s=30e-3, rate_pps=2e4,
                  orchestrators=1, heartbeat_interval_s=1e-3,
                  quiescent=False)
    cases = {
        "crash": dict(faults=(crash,)),
        "crash-during-recovery": dict(faults=(crash, FaultSpec(
            kind="crash-during-recovery", position=2, phase="fetching"))),
        "impair-control": dict(faults=(FaultSpec(
            kind="impair-control", at_s=5e-3, drop_rate=0.3, dup_rate=0.1,
            duration_s=5e-3),)),
        "impair-data": dict(reliable_links=True, faults=(FaultSpec(
            kind="impair-data", at_s=5e-3, drop_rate=0.05, dup_rate=0.02,
            reorder_rate=0.02, corrupt_rate=0.01, duration_s=10e-3),)),
        "orch-crash": dict(orchestrators=3, faults=(FaultSpec(
            kind="orch-crash", at_s=8e-3, restart_after_s=10e-3),)),
        "orch-partition": dict(orchestrators=3, faults=(FaultSpec(
            kind="orch-partition", at_s=8e-3, duration_s=8e-3),)),
        "stale-leader-resume": dict(orchestrators=3, faults=(FaultSpec(
            kind="stale-leader-resume", at_s=8e-3, duration_s=12e-3),)),
        "crash-during-reconfig": dict(steps=(rescale,), faults=(FaultSpec(
            kind="crash-during-reconfig", phase="draining"),)),
        "leader-failover-mid-switch": dict(
            orchestrators=3, steps=(rescale,), faults=(FaultSpec(
                kind="leader-failover-mid-switch", phase="switching"),)),
        "reconfig-during-recovery": dict(faults=(crash, FaultSpec(
            kind="reconfig-during-recovery", phase="fetching",
            operation="op=rescale position=2 threads=3"))),
        "slow-middlebox": dict(faults=(FaultSpec(
            kind="slow-middlebox", at_s=5e-3, position=1, factor=8.0,
            duration_s=6e-3),)),
        "queue-pressure": dict(faults=(FaultSpec(
            kind="queue-pressure", at_s=5e-3, factor=16.0,
            duration_s=6e-3),)),
    }
    return Scenario(**{**common, **cases[kind]})


def _cases() -> dict:
    from repro.chaos import Scenario
    from repro.chaos.plan import FAULT_KINDS
    from repro.chaos.scenario import Monkey, monitors
    from repro.chaos.soak import (
        AUDIT_INTERVAL_S,
        SOAK_COSTS,
        chaos_scenario,
        ctrlplane_scenario,
    )

    cases = {}
    for seed in range(4):
        for chain_length in (2, 3, 4):
            for f in (1, 2):
                cases[f"chaos-s{seed}-ch{chain_length}-f{f}"] = \
                    chaos_scenario(seed, chain_length, f, max_faults=4,
                                   duration_s=20e-3,
                                   mean_fault_interval_s=3e-3)
    for seed in range(2):
        cases[f"ctrlplane-s{seed}"] = ctrlplane_scenario(
            seed, max_faults=5, duration_s=50e-3,
            mean_fault_interval_s=5e-3)
    # Every samplable kind the two soak mixes leave out.
    cases["monkey-mixed"] = Scenario(
        chain=monitors(3), f=1, seed=0, costs=SOAK_COSTS, duration_s=40e-3,
        rate_pps=2e4, reliable_links=True, orchestrators=1,
        heartbeat_interval_s=1e-3, quiescent=False, drain_s=20e-3,
        audit_every_s=AUDIT_INTERVAL_S,
        monkey=Monkey(6, 4e-3, (("crash", 0.2), ("impair-data", 0.3),
                                ("slow-middlebox", 0.3),
                                ("queue-pressure", 0.2))))
    for kind in FAULT_KINDS:
        cases[f"scripted-{kind}"] = _scripted(kind)
    return cases


def child() -> dict:
    from repro.chaos import run

    out = {}
    for name, scenario in _cases().items():
        done = run(scenario)
        out[name] = {
            "faults": [list(fault) for fault in done.faults],
            "released": done.oracle.released,
            "detected": len(done.failures),
            "recovered": sum(1 for e in done.failures if e.recovered),
        }
    return out


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


def test_runs_match_the_committed_golden(current, golden):
    assert sorted(current) == sorted(golden)
    for name in golden:
        for key in golden[name]:
            assert current[name][key] == golden[name][key], (name, key)


def test_every_fault_kind_has_a_scripted_case(golden):
    from repro.chaos.plan import FAULT_KINDS

    scripted = {name for name in golden if name.startswith("scripted-")}
    assert scripted == {f"scripted-{kind}" for kind in FAULT_KINDS}


def test_every_scripted_case_injects(golden):
    for name, case in golden.items():
        if name.startswith("scripted-"):
            assert case["faults"], name


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(child()))
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(child(), indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN}")
