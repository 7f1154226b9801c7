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
from repro.experiments import ctrlplane, lossy, overload, reconfig
from repro.perf.scenarios import QUICK_DURATION_S, SCENARIOS

#: Every named scenario, as a builder (a reconfiguration that inserts
#: a middlebox carries the instance, so each run gets a fresh one):
#: the five soak kinds, the six bench scenarios, and each
#: extension-experiment point of a quick-mode table.
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
    **{f"reconfig/{name}":
       lambda build=build: reconfig.point(build(), 30e-3, 0)
       for name, build in reconfig.OP_BUILDERS},
    **{f"overload/{load}x":
       lambda load=load: overload.point(load, 30e-3, 0, OverloadSpec())
       for load in (1.0, 4.0)},
}


def fingerprint(out):
    # Packet ids come from a process-global counter: compare egress
    # order relative to the first released id.
    order = out.oracle.order
    return ([(v.invariant, v.detail) for v in out.violations],
            out.generator.sent, out.oracle.released,
            [pid - order[0] for pid in order],
            out.chain.channel_stats(), out.faults, out.sim._eid)


@pytest.mark.parametrize("name", NAMED)
def test_same_scenario_same_bytes_and_clean(name):
    """Two runs of one scenario agree on violations, offered/released,
    egress order where tracked, channel stats, injected faults and the
    simulator's final event id -- and every named scenario is clean."""
    first, second = run(NAMED[name]()), run(NAMED[name]())
    assert fingerprint(first) == fingerprint(second)
    assert first.checked() is first
    assert first.oracle.released > 0


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
            Scenario(chain_length=2, duration_s=1e-3, checks=("nope",))

    @pytest.mark.parametrize("step", [
        Step(1e-4), Step(1e-4, crash=0, expect="committed"),
        Step(1e-4, crash=0, expect="recoverd")])
    def test_step_needs_one_action_and_a_post_condition_it_can_meet(
            self, step):
        with pytest.raises(ValueError, match="exactly one of crash/op"):
            Scenario(chain_length=2, duration_s=1e-3, steps=(step,))


def test_unmet_post_condition_is_a_violation():
    """A crash nobody recovers (no control plane) fails its step's
    post-condition, and ``checked`` refuses to hand the run back."""
    out = run(Scenario(chain_length=2, duration_s=4e-3, rate_pps=2e4,
                       quiescent=False,
                       steps=(Step(1e-3, crash=1, expect="recovered"),)))
    assert [v.invariant for v in out.violations] == ["missed-failover"]
    with pytest.raises(AssertionError, match="never recovered"):
        out.checked()
