"""Chaos soak: randomized fault schedules + invariant auditing.

One *schedule* is a :class:`~.scenario.Scenario` -- a fresh Ch-n chain
under FTC, traffic, and an adversary (a :class:`ChaosMonkey`, or a
scripted fault plan and reconfiguration steps) -- run by
:func:`~.scenario.run`, which audits the §4/§5 invariants periodically
and once more at the end and reports every violation.  The five
``*_scenario`` functions are the soak kinds, and a *soak* is a list of
scenarios run by :func:`run_soak`.  ``repro chaos`` builds that list
from its flags, sweeping (chain length, f) with each schedule seeded
from the base seed -- a red schedule is reproduced bit-for-bit by
``python -m repro chaos --seed N``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.costs import CostModel
from ..core.reconfig import ClassifierRule, ClassifierSet, ReconfigOp
from ..flight import FlightRecorder
from ..net.flowgen import FlashCrowd, WorkloadSpec
from ..sim import RandomStreams
from ..telemetry import MetricRegistry, Telemetry
from .auditor import InvariantViolation
from .monkey import CTRLPLANE_KIND_WEIGHTS
from .plan import IMPAIRED_DELIVERY, FaultSpec
from .scenario import (CTRLPLANE_ELECTION, Monkey, Run, Scenario, Step, mbox,
                       monitors, run)

__all__ = ["SoakResult", "run_soak", "chaos_scenario", "impaired_scenario",
           "ctrlplane_scenario", "reconfig_scenario", "overload_scenario",
           "describe_overload", "CTRLPLANE_ELECTION", "OVERLOAD_COSTS"]

#: Deterministic cost model: chaos schedules must be a pure function of
#: the seed, so processing-time jitter is turned off.
SOAK_COSTS = CostModel(cycle_jitter_frac=0.0)

#: Overload soaks deliberately shrink the CPU so the chain's sustainable
#: capacity is known-low and a scripted flash crowd can exceed it by 4x
#: without needing millions of simulated packets per schedule.
OVERLOAD_COSTS = SOAK_COSTS.with_overrides(cpu_hz=1e7)

#: The overload soak's fixed shape (PROTOCOL.md §12), relative to the
#: chain's sustainable capacity under :data:`OVERLOAD_COSTS`.  The
#: workload idles at ``OVERLOAD_BASE`` of capacity until a flash crowd
#: multiplies it by ``OVERLOAD_FLASH`` (peak ``0.6 * 8 = 4.8x``, past the
#: 4x bar) over a window given as fractions of the schedule; admission
#: budgets ``OVERLOAD_BUDGET`` of capacity -- above 1.0, so the flash
#: really overloads the data plane and brownout has work to do; the run
#: must still deliver ``OVERLOAD_FLOOR`` of capacity end to end, and
#: brownout acts on p99 latency above ``OVERLOAD_P99_US``.
OVERLOAD_CAPACITY_PPS = 20e3
OVERLOAD_BASE = 0.6
OVERLOAD_BUDGET = 1.25
OVERLOAD_FLASH = 8.0
OVERLOAD_FLASH_START = 0.25
OVERLOAD_FLASH_DURATION = 0.3
OVERLOAD_FLOOR = 0.25
OVERLOAD_P99_US = 800.0

#: Audit cadence while the schedule runs.
AUDIT_INTERVAL_S = 2e-3


@dataclass
class SoakResult:
    """Aggregate outcome of a soak: the :class:`Run` of every schedule."""

    runs: List[Run] = field(default_factory=list)
    #: Metric registry merged across schedules (telemetry runs only).
    registry: Optional[MetricRegistry] = None

    @property
    def violations(self) -> List[InvariantViolation]:
        return [v for out in self.runs for v in out.violations]

    @property
    def faults_injected(self) -> int:
        return sum(len(out.faults) for out in self.runs)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def flight_dumps(self) -> List[str]:
        """Dump paths of the schedules whose flight recorder tripped."""
        flights = [out.chain.telemetry.flight for out in self.runs]
        return [flight.autodump_path for flight in flights if flight.trips]

    def summary(self) -> str:
        runs = self.runs
        lines = [
            f"chaos soak: {len(runs)} schedules, "
            f"{self.faults_injected} faults injected, "
            f"{sum(len(out.failures) for out in runs)} failures detected, "
            f"{sum(e.recovered for out in runs for e in out.failures)} "
            f"recoveries, {len(self.violations)} invariant violations",
        ]
        reports = [r for out in runs for r in out.reconfigs]
        committed = sum(1 for r in reports if r.committed)
        aborted = sum(1 for r in reports if r.aborted)
        if committed or aborted:
            lines.append(f"  reconfigurations: {committed} committed, "
                         f"{aborted} aborted")
        gates = [out.admission for out in runs if out.admission]
        shed = sum(gate.shed for gate in gates)
        if shed or any(gate.offered for gate in gates):
            transitions = sum(len(out.brownout.transitions)
                              for out in runs if out.brownout)
            lines.append(
                f"  overload: {sum(gate.offered for gate in gates)} "
                f"offered, {sum(gate.admitted for gate in gates)} "
                f"admitted, {shed} shed at ingress, "
                f"{transitions} brownout transitions")
        ensembles = [out.ensemble for out in runs if out.ensemble]
        elections = sum(len(e.election_log) for e in ensembles)
        if elections:
            lines.append(
                f"  control plane: {elections} elections, "
                f"{sum(e.gate.fenced_commands for e in ensembles)} "
                f"stale commands fenced")
        for index, out in enumerate(runs):
            if not out.violations:
                continue
            sc = out.scenario
            lines.append(f"  FAIL schedule {index} (seed={sc.seed}, "
                         f"Ch-{len(sc.chain)}, f={sc.f}):")
            for violation in out.violations:
                lines.append(f"    {violation}")
            for when, what in out.faults:
                lines.append(f"    fault @ {when * 1e3:.2f}ms: {what}")
        return "\n".join(lines)


def chaos_scenario(seed: int, chain_length: int, f: int,
                   max_faults: int = 3, duration_s: float = 60e-3,
                   rate_pps: float = 2e4,
                   heartbeat_interval_s: float = 1e-3,
                   mean_fault_interval_s: float = 8e-3,
                   index: int = 0) -> Scenario:
    """One randomized fault schedule on a fresh Ch-``chain_length`` chain:
    a :class:`ChaosMonkey` mixes crashes, crashes during recovery and
    control-plane impairment under one orchestrator.  The drain lets
    in-flight recoveries and commits finish; a crash landing late may
    still be mid-recovery, so the final audit does not assume quiescence.
    """
    return Scenario(
        chain=monitors(chain_length), f=f, seed=seed, costs=SOAK_COSTS,
        duration_s=duration_s, rate_pps=rate_pps, orchestrators=1,
        heartbeat_interval_s=heartbeat_interval_s,
        monkey=Monkey(max_faults, mean_fault_interval_s),
        audit_every_s=AUDIT_INTERVAL_S, quiescent=False,
        drain_s=20 * heartbeat_interval_s, context=(("schedule", index),))


def impaired_scenario(seed: int, chain_length: int = 2, f: int = 1,
                      drop_rate: float = 0.05, dup_rate: float = 0.02,
                      reorder_rate: float = 0.02, corrupt_rate: float = 0.01,
                      duration_s: float = 60e-3, rate_pps: float = 2e4,
                      heartbeat_interval_s: float = 1e-3,
                      index: int = 0) -> Scenario:
    """One data-plane adversity schedule (PROTOCOL.md §8).

    Reliable hop channels under an impairment window covering the
    middle 80% of the schedule: chain links drop/duplicate/reorder/
    corrupt packets while the end-to-end contract is audited --
    exactly-once per-flow-ordered egress, zero loss after drain, and
    *no failover* (a lossy link must read as a lossy link, not as a
    dead replica).  Retransmission tails (RTO backoff caps at 2 ms)
    need more drain runway than clean schedules.
    """
    return Scenario(
        chain=monitors(chain_length), f=f, seed=seed, costs=SOAK_COSTS,
        duration_s=duration_s, rate_pps=rate_pps, reliable_links=True,
        orchestrators=1, heartbeat_interval_s=heartbeat_interval_s,
        faults=(FaultSpec(
            kind=IMPAIRED_DELIVERY, at_s=duration_s * 0.1,
            drop_rate=drop_rate, dup_rate=dup_rate,
            reorder_rate=reorder_rate, corrupt_rate=corrupt_rate,
            duration_s=duration_s * 0.8),),
        audit_every_s=AUDIT_INTERVAL_S,
        checks=("egress-loss", "egress-order", "spurious-failover"),
        drain_s=40 * heartbeat_interval_s, context=(("schedule", index),))


def ctrlplane_scenario(seed: int, chain_length: int = 3, f: int = 1,
                       orchestrators: int = 3, max_faults: int = 4,
                       duration_s: float = 80e-3, rate_pps: float = 2e4,
                       heartbeat_interval_s: float = 1e-3,
                       mean_fault_interval_s: float = 10e-3,
                       orch_faults: bool = True,
                       index: int = 0) -> Scenario:
    """One control-plane chaos schedule (PROTOCOL.md §9).

    A replicated orchestrator ensemble monitors the chain while the
    monkey mixes chain crashes with ensemble-member crashes, one-member
    partitions, and leader freezes (stale resumes).  On top of the §4/§5
    invariants the auditor proves election safety -- at most one valid
    lease, one leader per epoch, no double recovery -- and every chain
    failure must eventually be failed over despite the churn.  The
    drain outlasts a full lease + candidacy + recovery cycle: paused
    members resume (and get fenced), crashed members restart, a leader
    re-elects, and any in-flight recovery finishes.
    """
    return Scenario(
        chain=monitors(chain_length), f=f, seed=seed, costs=SOAK_COSTS,
        duration_s=duration_s, rate_pps=rate_pps,
        orchestrators=orchestrators,
        heartbeat_interval_s=heartbeat_interval_s,
        monkey=Monkey(max_faults, mean_fault_interval_s,
                      tuple(CTRLPLANE_KIND_WEIGHTS.items())
                      if orch_faults else None),
        audit_every_s=AUDIT_INTERVAL_S, checks=("missed-failover",),
        drain_s=max(40 * heartbeat_interval_s,
                    CTRLPLANE_ELECTION.lease_s * 5 + 20e-3),
        context=(("schedule", index),))


def reconfig_scenario(seed: int, chain_length: int = 3, f: int = 1,
                      drop_rate: float = 0.02, dup_rate: float = 0.01,
                      reorder_rate: float = 0.01, corrupt_rate: float = 0.005,
                      duration_s: float = 80e-3, rate_pps: float = 2e4,
                      heartbeat_interval_s: float = 1e-3,
                      crashes: bool = False, orchestrators: int = 1,
                      index: int = 0) -> Scenario:
    """One live-reconfiguration schedule (PROTOCOL.md §11).

    Reliable hop channels under a data-plane impairment window while a
    scripted sequence fires: a classifier update, a vertical rescale,
    an instance migration, a middlebox insert, and its removal.  The
    end-to-end contract is audited throughout: every §4/§5 invariant,
    exactly-once per-flow-ordered egress, per-flow config-version
    monotonicity, zero loss, every operation terminal, and no spurious
    failover -- a drain + hold must read as a brief delay, never as a
    dead replica.

    ``crashes=True`` arms crash-during-reconfig faults instead: the
    zero-loss, terminal and no-failover assertions are waived (a crash
    loses in-flight packets by definition) but every invariant must
    still hold and every confirmed failure must be failed over.
    ``orchestrators > 1`` drives the operations through a replicated
    ensemble and kills the leader mid-switch -- the successor must
    resume or close the journaled operation, still without loss.
    """
    rng = RandomStreams(seed).stream("reconfig-soak")
    n_positions = max(chain_length, f + 1)
    rescale_pos = rng.randrange(n_positions)
    migrate_pos = rng.randrange(n_positions)
    ops = [
        (0.20, ReconfigOp(kind="classifier", classifier=ClassifierSet(
            version=1, rules=(ClassifierRule(action="allow"),)))),
        (0.34, ReconfigOp(kind="rescale", position=rescale_pos,
                          n_threads=3)),
        (0.48, ReconfigOp(kind="migrate", position=migrate_pos)),
        (0.60, ReconfigOp(kind="insert", index=1,
                          middlebox=mbox("monitor", name="soak-probe"))),
        (0.74, ReconfigOp(kind="remove", middlebox_name="soak-probe")),
    ]
    faults = [FaultSpec(
        kind=IMPAIRED_DELIVERY, at_s=duration_s * 0.1, drop_rate=drop_rate,
        dup_rate=dup_rate, reorder_rate=reorder_rate,
        corrupt_rate=corrupt_rate, duration_s=duration_s * 0.7)]
    checks = ["egress-order", "cfg-monotonic"]
    if crashes:
        faults.append(FaultSpec(kind="crash-during-reconfig",
                                phase="draining"))
        checks.append("missed-failover")
    else:
        checks.append("egress-loss")
        if orchestrators == 1:
            checks.append("spurious-failover")
    if orchestrators > 1:
        faults.append(FaultSpec(kind="leader-failover-mid-switch",
                                phase="switching"))
    return Scenario(
        chain=monitors(chain_length), f=f, seed=seed, costs=SOAK_COSTS,
        duration_s=duration_s, rate_pps=rate_pps, reliable_links=True,
        orchestrators=orchestrators,
        heartbeat_interval_s=heartbeat_interval_s, faults=tuple(faults),
        steps=tuple(Step(duration_s * fraction, op=op,
                         expect=None if crashes else "terminal")
                    for fraction, op in ops),
        audit_every_s=AUDIT_INTERVAL_S, quiescent=not crashes,
        checks=tuple(checks),
        # Retransmission tails, held packets releasing at line rate,
        # any resumed reconfiguration after a leader failover.
        drain_s=max(60 * heartbeat_interval_s,
                    CTRLPLANE_ELECTION.lease_s * 5 + 40e-3),
        context=(("schedule", index),))


def describe_overload(crashes: bool = False, orchestrators: int = 1) -> str:
    """The overload soak in one line, e.g. ``sustain=20000pps peak=4.8x
    budget=1.25x floor=0.25x crash=mid-flash orch=3``."""
    parts = [f"sustain={OVERLOAD_CAPACITY_PPS:g}pps",
             f"peak={OVERLOAD_BASE * OVERLOAD_FLASH:g}x",
             f"budget={OVERLOAD_BUDGET:g}x",
             f"floor={OVERLOAD_FLOOR:g}x"]
    if crashes:
        parts.append("crash=mid-flash")
    if orchestrators > 1:
        parts.append(f"orch={orchestrators}")
    return " ".join(parts)


def overload_scenario(seed: int, chain_length: int = 3, f: int = 1,
                      crashes: bool = False, orchestrators: int = 1,
                      duration_s: float = 120e-3,
                      heartbeat_interval_s: float = 1e-3,
                      index: int = 0) -> Scenario:
    """One flash crowd overload schedule (PROTOCOL.md §12).

    The full overload stack is wired: a heavy-tailed prioritized
    workload whose scripted flash crowd exceeds sustainable capacity
    4.8x; admission control gating the ingress against a backpressure
    bus spanning every bounded queue; an SLO watchdog on windowed p99
    latency driving a brownout controller that throttles admission,
    coarsens sampling, and batches feedback until pressure clears.

    The auditor proves the §12 invariants throughout (zero in-chain
    drops, queues within bounds, shed conservation and ordering,
    brownout journal 1:1) on top of §4/§5, and the schedule checks
    end-to-end outcomes: goodput stays above the floor, every admitted
    packet egresses exactly once (no-crash variant), and brownout has
    fully exited at quiescence -- the drain lets it walk its
    de-escalation ladder (4 clean ticks per level at the coarsened
    sampling interval).

    ``crashes=True`` crashes a seed-drawn position mid-flash --
    overload handling and failure recovery must coexist (the admitted
    == released assertion is waived; invariants are not).
    ``orchestrators > 1`` replaces the orchestrator with a
    leader-elected ensemble and journals every brownout transition
    through its write-ahead quorum journal.
    """
    flash = FlashCrowd(at_s=duration_s * OVERLOAD_FLASH_START,
                       duration_s=duration_s * OVERLOAD_FLASH_DURATION,
                       multiplier=OVERLOAD_FLASH)
    faults = ()
    if crashes:
        faults = (FaultSpec(
            kind="crash", at_s=flash.at_s + flash.duration_s / 2,
            position=RandomStreams(seed).stream("overload-soak").randrange(
                max(chain_length, f + 1))),)
    return Scenario(
        chain=monitors(chain_length), f=f, seed=seed, costs=OVERLOAD_COSTS,
        duration_s=duration_s, orchestrators=orchestrators,
        heartbeat_interval_s=heartbeat_interval_s,
        workload=WorkloadSpec(
            base_pps=OVERLOAD_BASE * OVERLOAD_CAPACITY_PPS,
            flashes=(flash,), n_flows=32, n_classes=3),
        admission_pps=OVERLOAD_BUDGET * OVERLOAD_CAPACITY_PPS,
        slo_p99_us=OVERLOAD_P99_US, faults=faults,
        audit_every_s=AUDIT_INTERVAL_S,
        checks=(("goodput-floor", "egress-duplicate")
                + (() if crashes else ("egress-loss",))),
        goodput_floor_pps=OVERLOAD_FLOOR * OVERLOAD_CAPACITY_PPS,
        drain_s=160e-3,
        context=(("schedule", index),
                 ("overload", describe_overload(crashes, orchestrators))))


def run_soak(scenarios: Sequence[Scenario], *, telemetry: bool = False,
             flight_dir: Optional[str] = None, progress=None) -> SoakResult:
    """Run each schedule -- any ``*_scenario`` above -- in order.

    ``telemetry`` merges every schedule's metrics into one registry;
    ``flight_dir`` records a flight log per schedule, auto-dumped to
    ``flight_dir/flight-<index>.json`` when an invariant trips (for
    ``repro explain``).  ``progress(run)`` sees each finished run.
    """
    result = SoakResult(registry=MetricRegistry() if telemetry else None)
    if flight_dir is not None:
        os.makedirs(flight_dir, exist_ok=True)
    for index, scenario in enumerate(scenarios):
        flight = None
        if flight_dir is not None:
            flight = FlightRecorder(autodump_path=os.path.join(
                flight_dir, f"flight-{index}.json"))
            flight.set_context(seed=scenario.seed, schedule=index,
                               chain_length=len(scenario.chain),
                               f=scenario.f)
        bundle = (Telemetry(flight=flight)
                  if telemetry or flight is not None else None)
        out = run(scenario, telemetry=bundle)
        if result.registry is not None:
            result.registry.merge(bundle.registry)
        result.runs.append(out)
        if progress is not None:
            progress(out)
    return result
