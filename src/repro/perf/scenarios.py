"""The scenario benchmark suite (PROTOCOL.md §13.2).

Each scenario is a :class:`~repro.chaos.scenario.Scenario` -- the same
kind of FTC chain the protocol tests exercise, a fixed-seed workload
and a scripted timeline -- run by the one audited loop
(:func:`repro.chaos.scenario.run`); what comes back is what was
offered and released and how many events were scheduled.  The
scenarios cover the regimes where per-packet cost differs
structurally:

==================== =====================================================
baseline             raw links, no overload machinery (the fig5 fast path)
reliable-links       per-hop ReliableChannel framing/ACK (§8), clean wire
lossy                reliable links over impaired wire: retransmit path
ctrlplane-failover   3-member ensemble recovers a mid-chain crash (§9)
reconfig-under-traffic  live rescale of a mid-chain position (§11)
overload             flash crowd through admission + backpressure (§12)
==================== =====================================================

Every run carries a :class:`~repro.chaos.ShadowOracle` on its egress
and ends with the quiescent invariant audit and its steps'
post-conditions; a run that is not clean raises instead of returning a
result, so a speedup that breaks an invariant cannot post a number.
There is no *scheduled* audit: an audit is an engine event and stage
call counts are gated exactly (§13.3).

A ``profiler``, when given, is installed on both the simulator
(``engine/dispatch``) and the chain's telemetry bundle (every other
stage), so per-stage counts come from the same run as the results.

Determinism: for a given (scenario, seed, quick) the outcome --
offered, released, events and per-stage call counts -- is exactly
reproducible.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..chaos.scenario import Scenario, Step, monitors, run
from ..core.reconfig import ReconfigOp
from ..net.flowgen import FlashCrowd, WorkloadSpec

__all__ = ["SCENARIOS", "run_scenario", "scenario_names"]

#: Offered rate for the data-plane scenarios (pps).
RATE_PPS = 2e5

#: Virtual traffic window, full vs --quick (the drain runway is extra).
DURATION_S = 30e-3
QUICK_DURATION_S = 10e-3

#: name -> (seed, traffic window) -> Scenario.
SCENARIOS: Dict[str, Callable[[int, float], Scenario]] = {
    "baseline": lambda seed, d: Scenario(
        chain=monitors(2), seed=seed, duration_s=d, rate_pps=RATE_PPS),
    "reliable-links": lambda seed, d: Scenario(
        chain=monitors(2), seed=seed, duration_s=d, rate_pps=RATE_PPS,
        reliable_links=True),
    # Healed before the runway so retransmission tails converge.
    "lossy": lambda seed, d: Scenario(
        chain=monitors(2), seed=seed, duration_s=d, rate_pps=RATE_PPS / 2,
        reliable_links=True, impair=(0.02, 0.01, 0.01, 0.005),
        drain_s=30e-3),
    # Recovery runway: detection + election-held lease + respawn.
    "ctrlplane-failover": lambda seed, d: Scenario(
        chain=monitors(3), seed=seed, duration_s=d, rate_pps=5e4,
        orchestrators=3,
        steps=(Step(d * 0.4, crash=1, expect="recovered"),), drain_s=50e-3),
    "reconfig-under-traffic": lambda seed, d: Scenario(
        chain=monitors(3), seed=seed, duration_s=d, rate_pps=RATE_PPS / 2,
        reliable_links=True,
        steps=(Step(d * 0.4, expect="committed", op=ReconfigOp(
            kind="rescale", position=1, n_threads=4)),), drain_s=30e-3),
    "overload": lambda seed, d: Scenario(
        chain=monitors(2), seed=seed, duration_s=d,
        workload=WorkloadSpec(
            base_pps=1e5, n_flows=64, n_classes=3,
            flashes=(FlashCrowd(at_s=d * 0.3, duration_s=d * 0.3,
                                multiplier=4.0),)),
        admission_pps=1e5 * 0.6, drain_s=10e-3),
}


def scenario_names():
    return list(SCENARIOS)


def _config(sc: Scenario) -> Dict:
    """The BENCH report's ``config`` block, read off the scenario."""
    config: Dict = {"chain": f"ch{len(sc.chain)}", "f": sc.f}
    if sc.workload is None:
        config["rate_pps"] = sc.rate_pps
    else:
        config["base_pps"] = sc.workload.base_pps
    config["duration_s"] = sc.duration_s
    if sc.reliable_links:
        config["reliable_links"] = True
    if sc.impair is not None:
        config["impairment"] = "drop={:g},dup={:g},reorder={:g}," \
                               "corrupt={:g}".format(*sc.impair)
    if sc.orchestrators:
        config["orchestrators"] = sc.orchestrators
    for step in sc.steps:
        if step.op is None:
            config["fail_position"] = step.crash
            config["t_fail_s"] = step.at_s
        else:
            config["op"] = (f"{step.op.kind}@{step.op.position}->"
                            f"{step.op.n_threads}threads")
    if sc.workload is not None:
        config["flash_multiplier"] = sc.workload.flashes[0].multiplier
        config["admission_pps"] = sc.admission_pps
    return config


def run_scenario(name: str, seed: int = 0, quick: bool = False,
                 profiler=None, telemetry=None, on_start=None) -> Dict:
    """Run one scenario; returns its result dict.

    ``telemetry`` overrides the scenario's internal bundle (e.g. to
    capture a Chrome trace); ``on_start(run)`` fires once the run is
    built (e.g. to attach a :class:`~.counters.CounterSampler`).
    Raises if the run's final audit or a step post-condition failed.
    """
    try:
        build = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}")
    sc = build(seed, QUICK_DURATION_S if quick else DURATION_S)
    out = run(sc, telemetry=telemetry, profiler=profiler,
              on_start=on_start).checked()
    result = {
        "config": _config(sc),
        "offered": out.generator.sent,
        "released": out.egress.count,
        "events": out.sim._eid,
        "buffer_held_peak": out.chain.buffer.held_peak,
    }
    if sc.impair is not None:
        result["retransmissions"] = out.chain.channel_stats().get(
            "retransmissions", 0)
    if out.control is not None:
        result["recoveries"] = len(out.failures)
    if any(step.op is not None for step in sc.steps):
        result["reconfig_committed"] = all(r.committed
                                           for r in out.reconfigs)
    if out.admission is not None:
        result["admitted"] = out.admission.admitted
        result["shed"] = out.admission.shed
    return result
