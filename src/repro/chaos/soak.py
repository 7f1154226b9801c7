"""Chaos soak: randomized fault schedules + invariant auditing.

One *schedule* is a :class:`~.scenario.Scenario` -- a fresh Ch-n chain
under FTC, traffic, and an adversary (a :class:`ChaosMonkey`, or a
scripted fault plan and reconfiguration steps) -- run by
:func:`~.scenario.run`, which audits the §4/§5 invariants periodically
and once more at the end and reports every violation.  The five
``*_scenario`` functions are the soak kinds; a *soak* sweeps many
schedules over (chain length, f) combinations, each derived
deterministically from the base seed -- a red schedule is reproduced
bit-for-bit by ``python -m repro chaos --seed N``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..core.costs import CostModel
from ..core.reconfig import ClassifierRule, ClassifierSet, ReconfigOp
from ..flight import FlightRecorder
from ..middlebox.monitor import Monitor
from ..net.flowgen import FlashCrowd, WorkloadSpec
from ..sim import RandomStreams
from ..telemetry import MetricRegistry, Telemetry
from .auditor import InvariantViolation
from .monkey import CTRLPLANE_KIND_WEIGHTS
from .plan import IMPAIRED_DELIVERY, FaultSpec
from .scenario import CTRLPLANE_ELECTION, Monkey, Run, Scenario, Step, run

__all__ = ["SoakConfig", "ScheduleResult", "SoakResult", "run_schedule",
           "run_soak", "chaos_scenario", "impaired_scenario",
           "ctrlplane_scenario", "reconfig_scenario", "overload_scenario",
           "soak_scenario", "CTRLPLANE_ELECTION", "OverloadSpec",
           "OVERLOAD_COSTS"]

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
class SoakConfig:
    """Sweep parameters for :func:`run_soak`.

    The mode fields pick the soak kind (:func:`soak_scenario`); a
    combination no kind honours is a ``ValueError`` here, never a
    silently ignored field.
    """

    seed: int = 0
    schedules: int = 50
    faults_per_schedule: int = 3
    chain_lengths: Sequence[int] = (2, 3, 4, 5)
    f_values: Sequence[int] = (1, 2)
    duration_s: float = 60e-3
    rate_pps: float = 2e4
    heartbeat_interval_s: float = 1e-3
    mean_fault_interval_s: float = 8e-3
    #: Collect per-schedule recovery timelines and an aggregate metric
    #: registry (purely observational; schedules stay bit-identical).
    telemetry: bool = False
    #: Data-plane impairment rates ``(drop, dup, reorder, corrupt)``.
    #: When set, the soak runs :func:`impaired_scenario` instead:
    #: reliable links + lossy data plane + exactly-once egress checks.
    impair_data: Optional[Tuple[float, float, float, float]] = None
    #: Orchestrator replicas.  ``> 1`` runs :func:`ctrlplane_scenario`
    #: (or the reconfig/overload kind under an ensemble): a leader-
    #: elected ensemble with epoch fencing replaces the single
    #: orchestrator (PROTOCOL.md §9).
    orchestrators: int = 1
    #: With ``orchestrators > 1``: also let the monkey crash, partition,
    #: and pause ensemble members (the ``orch-*`` fault kinds).
    orch_faults: bool = False
    #: Live-reconfiguration soak (PROTOCOL.md §11): each schedule runs
    #: a scripted sequence of reconfigurations (classifier, rescale,
    #: migrate, insert, remove) under traffic + lossy links, asserting
    #: zero loss and zero reorder end to end.
    reconfig: bool = False
    #: With ``reconfig``: also crash positions mid-reconfiguration
    #: (aborts are exercised; the zero-loss assertion is waived since a
    #: crash inherently loses in-flight packets -- invariants only).
    reconfig_crashes: bool = False
    #: Record a causal flight log per schedule (implies telemetry for
    #: that schedule); an invariant violation auto-dumps it to
    #: ``flight_dump_dir/flight-<index>.json`` for ``repro explain``.
    flight: bool = False
    flight_dump_dir: str = "flight-dumps"
    #: Overload soak (PROTOCOL.md §12): each schedule drives a
    #: flash-crowd workload through admission control + backpressure +
    #: brownout and audits the overload invariants (no in-chain drop,
    #: queues within bounds, shed conservation, goodput floor).
    overload: Optional[OverloadSpec] = None

    def __post_init__(self):
        if self.orchestrators < 1:
            raise ValueError("orchestrators must be >= 1")
        if self.orch_faults and self.orchestrators < 2:
            raise ValueError("orch_faults needs orchestrators >= 2 "
                             "(no ensemble to attack)")
        if self.impair_data is not None and self.orchestrators > 1:
            raise ValueError("impair_data and orchestrators are separate "
                             "soak modes; pick one")
        if self.reconfig and self.impair_data is not None:
            raise ValueError("reconfig runs its own impairment window; "
                             "drop impair_data")
        if self.reconfig_crashes and not self.reconfig:
            raise ValueError("reconfig_crashes needs reconfig")
        if self.overload is not None:
            if self.impair_data is not None or self.reconfig:
                raise ValueError("overload is its own soak mode; drop "
                                 "impair_data/reconfig")
            if self.orchestrators > 1 and self.overload.orchestrators == 1:
                self.overload = replace(self.overload,
                                        orchestrators=self.orchestrators)


@dataclass
class ScheduleResult:
    """Outcome of one randomized schedule."""

    index: int
    seed: int
    chain_length: int
    f: int
    faults: List[Tuple[float, str]] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    released: int = 0
    failures_detected: int = 0
    recoveries: int = 0
    degraded: bool = False
    #: Structured recovery timeline (event dicts), when telemetry ran.
    timeline: List[dict] = field(default_factory=list)
    #: Impaired schedules only (PROTOCOL.md §8): offered load, per-hop
    #: retransmissions, and the exact egress pid order for determinism
    #: regression (two runs of one seed must agree bit-for-bit).
    sent: int = 0
    retransmissions: int = 0
    egress_pids: Optional[List[int]] = None
    #: Control-plane schedules only (PROTOCOL.md §9): elections won
    #: across the run and stale commands the epoch gate rejected.
    elections: int = 0
    fenced_commands: int = 0
    #: Reconfig schedules only (PROTOCOL.md §11).
    reconfigs_committed: int = 0
    reconfigs_aborted: int = 0
    #: Overload schedules only (PROTOCOL.md §12): admission ledger,
    #: end-to-end goodput, and the brownout transition count.
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    goodput_pps: float = 0.0
    brownout_transitions: int = 0
    #: Path of the flight dump written for this schedule (flight soaks
    #: that tripped an invariant only).
    flight_dump: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SoakResult:
    """Aggregate outcome of a soak run."""

    config: SoakConfig
    schedules: List[ScheduleResult] = field(default_factory=list)
    #: Metric registry merged across schedules (telemetry runs only).
    registry: Optional[MetricRegistry] = None

    @property
    def violations(self) -> List[InvariantViolation]:
        return [v for s in self.schedules for v in s.violations]

    @property
    def faults_injected(self) -> int:
        return sum(len(s.faults) for s in self.schedules)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.schedules)

    def summary(self) -> str:
        lines = [
            f"chaos soak: {len(self.schedules)} schedules, "
            f"{self.faults_injected} faults injected, "
            f"{sum(s.failures_detected for s in self.schedules)} failures "
            f"detected, {sum(s.recoveries for s in self.schedules)} "
            f"recoveries, {len(self.violations)} invariant violations",
        ]
        reconfigs = sum(s.reconfigs_committed for s in self.schedules)
        if reconfigs or any(s.reconfigs_aborted for s in self.schedules):
            lines.append(
                f"  reconfigurations: {reconfigs} committed, "
                f"{sum(s.reconfigs_aborted for s in self.schedules)} "
                f"aborted")
        shed = sum(s.shed for s in self.schedules)
        if shed or any(s.offered for s in self.schedules):
            lines.append(
                f"  overload: {sum(s.offered for s in self.schedules)} "
                f"offered, {sum(s.admitted for s in self.schedules)} "
                f"admitted, {shed} shed at ingress, "
                f"{sum(s.brownout_transitions for s in self.schedules)} "
                f"brownout transitions")
        elections = sum(s.elections for s in self.schedules)
        if elections:
            lines.append(
                f"  control plane: {elections} elections, "
                f"{sum(s.fenced_commands for s in self.schedules)} "
                f"stale commands fenced")
        for schedule in self.schedules:
            if schedule.ok:
                continue
            lines.append(
                f"  FAIL schedule {schedule.index} "
                f"(seed={schedule.seed}, Ch-{schedule.chain_length}, "
                f"f={schedule.f}):")
            for violation in schedule.violations:
                lines.append(f"    {violation}")
            for when, what in schedule.faults:
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
        chain_length=chain_length, f=f, seed=seed, costs=SOAK_COSTS,
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
        chain_length=chain_length, f=f, seed=seed, costs=SOAK_COSTS,
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
        chain_length=chain_length, f=f, seed=seed, costs=SOAK_COSTS,
        duration_s=duration_s, rate_pps=rate_pps,
        orchestrators=orchestrators,
        heartbeat_interval_s=heartbeat_interval_s,
        monkey=Monkey(max_faults, mean_fault_interval_s,
                      CTRLPLANE_KIND_WEIGHTS if orch_faults else None),
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
                          middlebox=Monitor(name="soak-probe"))),
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
        chain_length=chain_length, f=f, seed=seed, costs=SOAK_COSTS,
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
        chain_length=chain_length, f=f, seed=seed, costs=OVERLOAD_COSTS,
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


def _schedule(out: Run) -> ScheduleResult:
    """Read one finished :class:`Run` into a :class:`ScheduleResult`."""
    sc = out.scenario
    ensemble, admission = out.ensemble, out.admission
    return ScheduleResult(
        index=dict(sc.context).get("schedule", 0), seed=sc.seed,
        chain_length=sc.chain_length, f=sc.f, faults=list(out.faults),
        violations=out.violations, released=out.oracle.released,
        failures_detected=len(out.failures),
        recoveries=sum(1 for e in out.failures if e.recovered),
        degraded=out.chain.degraded,
        timeline=out.chain.telemetry.timeline.as_dicts(),
        sent=out.generator.sent,
        retransmissions=out.chain.channel_stats().get("retransmissions", 0),
        egress_pids=(list(out.oracle.order) if out.oracle.track_order
                     else None),
        elections=len(ensemble.election_log) if ensemble else 0,
        fenced_commands=ensemble.gate.fenced_commands if ensemble else 0,
        reconfigs_committed=sum(1 for r in out.reconfigs if r.committed),
        reconfigs_aborted=sum(1 for r in out.reconfigs if r.aborted),
        offered=admission.offered if admission else 0,
        admitted=admission.admitted if admission else 0,
        shed=admission.shed if admission else 0,
        goodput_pps=out.oracle.released / sc.duration_s,
        brownout_transitions=(len(out.brownout.transitions)
                              if out.brownout else 0))


def run_schedule(scenario: Scenario, telemetry=None) -> ScheduleResult:
    """Run one schedule -- any ``*_scenario`` above -- to its result."""
    return _schedule(run(scenario, telemetry=telemetry))


def soak_scenario(config: SoakConfig, index: int) -> Scenario:
    """Schedule ``index`` of a soak: round-robin over the (chain length,
    f) grid, seeded from ``config.seed``, of the kind the config selects."""
    grid = [(n, f) for n in config.chain_lengths for f in config.f_values]
    chain_length, f = grid[index % len(grid)]
    common = dict(seed=config.seed * 10_000 + index,
                  chain_length=chain_length, f=f, index=index,
                  heartbeat_interval_s=config.heartbeat_interval_s)
    if config.overload is not None:
        return overload_scenario(spec=config.overload,
                                 duration_s=max(config.duration_s, 120e-3),
                                 **common)
    common["rate_pps"] = config.rate_pps
    if config.reconfig:
        return reconfig_scenario(duration_s=max(config.duration_s, 80e-3),
                                 crashes=config.reconfig_crashes,
                                 orchestrators=config.orchestrators, **common)
    common["duration_s"] = config.duration_s
    if config.impair_data is not None:
        drop, dup, reorder, corrupt = config.impair_data
        return impaired_scenario(drop_rate=drop, dup_rate=dup,
                                 reorder_rate=reorder, corrupt_rate=corrupt,
                                 **common)
    common.update(max_faults=config.faults_per_schedule,
                  mean_fault_interval_s=config.mean_fault_interval_s)
    if config.orchestrators > 1:
        return ctrlplane_scenario(orchestrators=config.orchestrators,
                                  orch_faults=config.orch_faults, **common)
    return chaos_scenario(**common)


def run_soak(config: Optional[SoakConfig] = None,
             progress=None) -> SoakResult:
    """Run ``config.schedules`` schedules of :func:`soak_scenario`."""
    config = config or SoakConfig()
    result = SoakResult(config=config)
    if config.telemetry:
        result.registry = MetricRegistry()
    if config.flight:
        os.makedirs(config.flight_dump_dir, exist_ok=True)
    for index in range(config.schedules):
        scenario = soak_scenario(config, index)
        flight = None
        if config.flight:
            flight = FlightRecorder(autodump_path=os.path.join(
                config.flight_dump_dir, f"flight-{index}.json"))
            flight.set_context(seed=scenario.seed, schedule=index,
                               chain_length=scenario.chain_length,
                               f=scenario.f)
        telemetry = (Telemetry(flight=flight)
                     if config.telemetry or config.flight else None)
        schedule = run_schedule(scenario, telemetry=telemetry)
        if telemetry is not None and result.registry is not None:
            result.registry.merge(telemetry.registry)
        if flight is not None and flight.trips:
            schedule.flight_dump = flight.autodump_path
        result.schedules.append(schedule)
        if progress is not None:
            progress(schedule)
    return result
