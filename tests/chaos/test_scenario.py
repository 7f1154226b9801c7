"""The one audited run loop: determinism and auditing as properties of
``repro.chaos.scenario.run``, over every named scenario in the repo."""

import dataclasses

import pytest

from repro.chaos import (
    OverloadSpec,
    Scenario,
    Step,
    chaos_scenario,
    ctrlplane_scenario,
    impaired_scenario,
    overload_scenario,
    reconfig_scenario,
    run,
)
from repro.chaos.scenario import FTC_ONLY, Monkey, mbox, monitors
from repro.chaos.plan import FaultSpec
from repro.cli import _build_parser, _scenario
from repro.experiments import ctrlplane, lossy, overload, reconfig
from repro.experiments.runner import latency_under_load, saturation_throughput
from repro.perf.scenarios import QUICK_DURATION_S, SCENARIOS


def cli(*argv):
    return _scenario(_build_parser().parse_args(argv))


#: A shrunken window for the harness's figure points.
_WINDOW = dict(warm_s=0.3e-3, window_s=0.7e-3)

#: Every named scenario, as a builder: the five soak kinds, the six
#: bench scenarios, each extension-experiment point of a quick-mode
#: table, figure points of both harness shapes on each system, and
#: the scenarios ``repro run`` builds from its flags.
NAMED = {
    "soak/chaos": lambda: chaos_scenario(seed=3, chain_length=2, f=2,
                                         duration_s=30e-3),
    "soak/impaired": lambda: impaired_scenario(seed=3, duration_s=20e-3),
    "soak/ctrlplane": lambda: ctrlplane_scenario(seed=3, duration_s=40e-3),
    "soak/reconfig": lambda: reconfig_scenario(seed=3),
    "soak/overload": lambda: overload_scenario(seed=3),
    **{f"bench/{name}": lambda build=build: build(0, QUICK_DURATION_S)
       for name, build in SCENARIOS.items()},
    **{f"lossy/{drop}": lambda drop=drop: lossy.point(drop, 10e-3, 0)
       for drop in (0.0, 0.05)},
    **{f"ctrlplane/{name}": lambda name=name: ctrlplane.point(name, 0)
       for name in ctrlplane.SCENARIOS},
    **{f"reconfig/{name}": lambda op=op: reconfig.point(op, 30e-3, 0)
       for name, op in reconfig.OPS},
    **{f"overload/{load}x":
       lambda load=load: overload.point(load, 30e-3, 0, OverloadSpec())
       for load in (1.0, 4.0)},
    **{f"saturation/{system}": lambda system=system: saturation_throughput(
        system, monitors(2, n_threads=2), threads=2, **_WINDOW)
       for system in ("nf", "ftc", "ftmb", "ftmb+snapshot")},
    "saturation/gen-128B": lambda: saturation_throughput(
        "ftc", (mbox("gen", name="gen", state_size=64),), threads=1,
        packet_size=128, rate_pps=6e6, **_WINDOW),
    "saturation/htm": lambda: saturation_throughput(
        "ftc", (mbox("monitor", name="mon", n_threads=8),), threads=1,
        flows=16, htm=True, **_WINDOW),
    **{f"latency/{system}": lambda system=system: latency_under_load(
        system, monitors(2, n_threads=1), rate_pps=5e5, threads=1, **_WINDOW)
       for system in ("nf", "ftc", "ftmb", "remote-store")},
    "cli/run": lambda: cli("run", "--chain", "firewall,monitor,simplenat",
                           "--duration", "0.004", "--threads", "2"),
    "cli/fail-at": lambda: cli("run", "--rate", "2e5", "--duration", "0.008",
                               "--threads", "2", "--fail-at", "0.002"),
    "cli/orchestrators": lambda: cli(
        "run", "--rate", "1e5", "--duration", "0.02", "--threads", "2",
        "--orchestrators", "3", "--fail-at", "0.004"),
    "cli/nf": lambda: cli("run", "--system", "nf", "--duration", "0.004"),
}


def fingerprint(out):
    # Packet ids come from a process-global counter: compare egress
    # order relative to the first released id.
    order = out.oracle.order
    return ([(v.invariant, v.detail) for v in out.violations],
            out.generator.sent, out.oracle.released,
            [pid - order[0] for pid in order],
            getattr(out.chain, "channel_stats", dict)(), out.faults,
            out.sim._eid)


@pytest.mark.parametrize("name", NAMED)
def test_same_scenario_same_bytes_and_clean(name):
    """Two runs of one scenario agree on violations, offered/released,
    egress order where tracked, channel stats, injected faults and the
    simulator's final event id -- and every named scenario is clean."""
    first, second = run(NAMED[name]()), run(NAMED[name]())
    assert fingerprint(first) == fingerprint(second)
    assert first.checked() is first
    assert first.oracle.released > 0


@pytest.mark.parametrize("name", NAMED)
def test_every_scenario_is_data(name):
    """A rebuilt scenario is its twin: equal, and equal in hash (runs
    can be memoised and compared by value)."""
    first, second = NAMED[name](), NAMED[name]()
    assert first == second
    assert hash(first) == hash(second)


#: A value off the default for each FTC-only field.
_FTC_ONLY_VALUES = {
    "orchestrators": 1,
    "steps": (Step(1e-3, crash=0),),
    "faults": (FaultSpec(kind="crash", at_s=1e-3, position=0),),
    "monkey": Monkey(1, 1e-3),
    "impair": (0.1, 0.0, 0.0, 0.0),
    "reliable_links": True,
    "admission_pps": 1e5,
    "slo_p99_us": 500.0,
    "audit_every_s": 1e-3,
    "region": "core",
    "htm": True,
}


@pytest.mark.parametrize("name", FTC_ONLY)
def test_a_non_ftc_scenario_rejects_each_ftc_only_field(name):
    given = {name: _FTC_ONLY_VALUES[name]}
    Scenario(chain=monitors(2), duration_s=1e-3, **given)
    for system in ("nf", "ftmb", "ftmb+snapshot", "remote-store"):
        with pytest.raises(ValueError, match=f"{name} need system ftc"):
            Scenario(system=system, chain=monitors(2), duration_s=1e-3,
                     **given)


def test_a_non_ftc_run_builds_no_ftc_machinery():
    """NF gets the oracle's checks and nothing else: no auditor, no
    injector, no control plane."""
    out = run(NAMED["saturation/nf"]()).checked()
    assert out.control is None and out.faults == []
    assert out.oracle.released > 0 and not out.oracle.out_of_order


def test_a_recover_step_fails_over_without_a_control_plane():
    out = run(NAMED["cli/fail-at"]()).checked()
    (event,) = out.failures
    assert event.recovered and event.positions == [0]
    with pytest.raises(ValueError, match="recover steps need"):
        Scenario(chain=monitors(2), duration_s=1e-3, orchestrators=1,
                 steps=(Step(1e-3, recover=0),))


def test_no_field_that_no_caller_sets():
    """A Scenario field exists only if some named scenario moves it off
    its default -- the record is no wider than its callers."""
    unused = [
        field.name for field in dataclasses.fields(Scenario)
        if field.default is not dataclasses.MISSING
        and all(getattr(build(), field.name) == field.default
                for build in NAMED.values())]
    assert unused == []


class TestScenarioValidation:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown end-of-run check"):
            Scenario(chain=monitors(2), duration_s=1e-3, checks=("nope",))

    @pytest.mark.parametrize("step", [
        Step(1e-4), Step(1e-4, crash=0, expect="committed"),
        Step(1e-4, crash=0, expect="recoverd")])
    def test_step_needs_one_action_and_a_post_condition_it_can_meet(
            self, step):
        with pytest.raises(ValueError, match="exactly one of crash/op"):
            Scenario(chain=monitors(2), duration_s=1e-3, steps=(step,))


def test_unmet_post_condition_is_a_violation():
    """A crash nobody recovers (no control plane) fails its step's
    post-condition, and ``checked`` refuses to hand the run back."""
    out = run(Scenario(chain=monitors(2), duration_s=4e-3, rate_pps=2e4,
                       quiescent=False,
                       steps=(Step(1e-3, crash=1, expect="recovered"),)))
    assert [v.invariant for v in out.violations] == ["missed-failover"]
    with pytest.raises(AssertionError, match="never recovered"):
        out.checked()
