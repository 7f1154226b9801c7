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
           "CTRLPLANE_ELECTION", "OverloadSpec", "OVERLOAD_COSTS"]

#: Deterministic cost model: chaos schedules must be a pure function of
#: the seed, so processing-time jitter is turned off.
SOAK_COSTS = CostModel(cycle_jitter_frac=0.0)

#: Overload soaks deliberately shrink the CPU so the chain's sustainable
#: capacity is known-low and a scripted flash crowd can exceed it by 4x
#: without needing millions of simulated packets per schedule.
OVERLOAD_COSTS = SOAK_COSTS.with_overrides(cpu_hz=1e7)

#: Audit cadence while the schedule runs.
AUDIT_INTERVAL_S = 2e-3


@dataclass(frozen=True)
class OverloadSpec:
    """Parameters of one flash-crowd overload schedule (PROTOCOL.md §12).

    Everything is expressed relative to ``sustainable_pps``, the
    chain's measured capacity under :data:`OVERLOAD_COSTS`, so one
    number recalibrates the whole scenario:

    * the workload idles at ``base_frac`` of capacity, then a scripted
      flash crowd multiplies it by ``flash_factor`` (default peak =
      ``0.6 * 8 = 4.8x`` capacity -- comfortably past the 4x bar);
    * admission budgets ``budget_frac`` of capacity -- deliberately
      *above* 1.0 so the flash genuinely overloads the data plane and
      brownout has something to do;
    * the run must still deliver ``goodput_floor_frac`` of capacity
      averaged end to end, and p99 latency is the SLO brownout acts on.
    """

    sustainable_pps: float = 20e3
    base_frac: float = 0.6
    budget_frac: float = 1.25
    flash_factor: float = 8.0
    flash_start_frac: float = 0.25
    flash_duration_frac: float = 0.3
    goodput_floor_frac: float = 0.25
    p99_limit_us: float = 800.0
    crash: bool = False
    orchestrators: int = 1

    def __post_init__(self):
        if self.sustainable_pps <= 0:
            raise ValueError("sustainable_pps must be positive")
        if not 0.0 < self.base_frac <= 1.0:
            raise ValueError("base_frac must be in (0, 1]")
        if self.budget_frac <= 0:
            raise ValueError("budget_frac must be positive")
        if self.flash_factor < 1.0:
            raise ValueError("flash_factor must be >= 1")
        if not 0.0 <= self.flash_start_frac < 1.0:
            raise ValueError("flash_start_frac must be in [0, 1)")
        if not 0.0 < self.flash_duration_frac <= 1.0 - self.flash_start_frac:
            raise ValueError("flash window must fit inside the schedule")
        if not 0.0 <= self.goodput_floor_frac < 1.0:
            raise ValueError("goodput_floor_frac must be in [0, 1)")
        if self.p99_limit_us <= 0:
            raise ValueError("p99_limit_us must be positive")
        if self.orchestrators < 1:
            raise ValueError("orchestrators must be >= 1")

    @property
    def peak_factor(self) -> float:
        """Peak offered load as a multiple of sustainable capacity."""
        return self.base_frac * self.flash_factor

    @classmethod
    def parse(cls, text: str) -> "OverloadSpec":
        """Parse ``key=value`` pairs (CLI ``--overload``), e.g.
        ``over=8,base=0.6,budget=1.25,floor=0.25,crash=1,orch=3``.

        Keys: ``sustain`` (pps), ``base``/``budget``/``floor``
        (fractions of capacity), ``over`` (flash multiplier),
        ``start``/``dur`` (flash window, fractions of the schedule),
        ``p99`` (us), ``crash`` (0/1), ``orch`` (ensemble size).
        """
        keymap = {"sustain": ("sustainable_pps", float),
                  "base": ("base_frac", float),
                  "budget": ("budget_frac", float),
                  "over": ("flash_factor", float),
                  "start": ("flash_start_frac", float),
                  "dur": ("flash_duration_frac", float),
                  "floor": ("goodput_floor_frac", float),
                  "p99": ("p99_limit_us", float),
                  "crash": ("crash", lambda v: bool(int(v))),
                  "orch": ("orchestrators", int)}
        kwargs: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            if key not in keymap:
                raise ValueError(f"unknown overload key {key!r} "
                                 f"(known: {', '.join(sorted(keymap))})")
            field_name, convert = keymap[key]
            try:
                kwargs[field_name] = convert(value)
            except ValueError as exc:
                raise ValueError(
                    f"bad value for {key!r}: {value!r}") from exc
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [f"sustain={self.sustainable_pps:g}pps",
                 f"peak={self.peak_factor:g}x",
                 f"budget={self.budget_frac:g}x",
                 f"floor={self.goodput_floor_frac:g}x"]
        if self.crash:
            parts.append("crash=mid-flash")
        if self.orchestrators > 1:
            parts.append(f"orch={self.orchestrators}")
        return " ".join(parts)


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


def overload_scenario(seed: int, chain_length: int = 3, f: int = 1,
                      spec: Optional[OverloadSpec] = None,
                      duration_s: float = 120e-3,
                      heartbeat_interval_s: float = 1e-3,
                      index: int = 0) -> Scenario:
    """One flash-crowd overload schedule (PROTOCOL.md §12).

    The full overload stack is wired: a heavy-tailed prioritized
    workload whose scripted flash crowd exceeds sustainable capacity by
    ``spec.peak_factor`` (default 4.8x); admission control gating the
    ingress against a backpressure bus spanning every bounded queue;
    an SLO watchdog on windowed p99 latency driving a brownout
    controller that throttles admission, coarsens sampling, and batches
    feedback until pressure clears.

    The auditor proves the §12 invariants throughout (zero in-chain
    drops, queues within bounds, shed conservation and ordering,
    brownout journal 1:1) on top of §4/§5, and the schedule checks
    end-to-end outcomes: goodput stays above the configured floor,
    every admitted packet egresses exactly once (no-crash variant), and
    brownout has fully exited at quiescence -- the drain lets it walk
    its de-escalation ladder (4 clean ticks per level at the coarsened
    sampling interval).

    ``spec.crash=True`` crashes a seed-drawn position mid-flash --
    overload handling and failure recovery must coexist (the admitted
    == released assertion is waived; invariants are not).
    ``spec.orchestrators > 1`` replaces the orchestrator with a
    leader-elected ensemble and journals every brownout transition
    through its write-ahead quorum journal.
    """
    spec = spec or OverloadSpec()
    flash = FlashCrowd(at_s=duration_s * spec.flash_start_frac,
                       duration_s=duration_s * spec.flash_duration_frac,
                       multiplier=spec.flash_factor)
    faults = ()
    if spec.crash:
        faults = (FaultSpec(
            kind="crash", at_s=flash.at_s + flash.duration_s / 2,
            position=RandomStreams(seed).stream("overload-soak").randrange(
                max(chain_length, f + 1))),)
    return Scenario(
        chain=monitors(chain_length), f=f, seed=seed, costs=OVERLOAD_COSTS,
        duration_s=duration_s, orchestrators=spec.orchestrators,
        heartbeat_interval_s=heartbeat_interval_s,
        workload=WorkloadSpec(
            base_pps=spec.base_frac * spec.sustainable_pps,
            flashes=(flash,), n_flows=32, n_classes=3),
        admission_pps=spec.budget_frac * spec.sustainable_pps,
        slo_p99_us=spec.p99_limit_us, faults=faults,
        audit_every_s=AUDIT_INTERVAL_S,
        checks=(("goodput-floor", "egress-duplicate")
                + (() if spec.crash else ("egress-loss",))),
        goodput_floor_pps=spec.goodput_floor_frac * spec.sustainable_pps,
        drain_s=160e-3,
        context=(("schedule", index), ("overload", spec.describe())))


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
