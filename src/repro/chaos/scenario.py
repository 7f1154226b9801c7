"""One declarative :class:`Scenario`, one audited run loop.

Every soak schedule, bench scenario, experiment and figure point and
``repro run|trace|report`` invocation is a frozen :class:`Scenario` --
a system over a chain of middleboxes (both as data), its links, control
plane, traffic, adversary, timed :class:`Step`\\ s and checks -- handed
to :func:`run`, which builds the simulator and walks it through build
-> start -> arm -> periodic audit -> stop traffic -> heal what was armed
-> drain -> final audit -> collect.  A :class:`ShadowOracle` sits on
every egress and, on FTC, the :class:`InvariantAuditor` has the last
word, so a number is only ever reported next to the invariants it was
measured under (PROTOCOL.md §4; :meth:`Run.checked` turns a violation
into an error).  Other systems get no auditor, injector or control
plane, and reject the :data:`FTC_ONLY` fields.

Determinism: the build order below is part of the contract (event ids
break same-instant ties), and everything is a pure function of the
scenario -- same scenario, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Tuple

from ..core import recover_positions
from ..core.admission import AdmissionControl, BackpressureBus
from ..core.costs import DEFAULT_COSTS, CostModel
from ..core.reconfig import ReconfigError, ReconfigOp, apply_reconfig
from ..experiments.systems import build_system
from ..flight.slo import SLOObjective, SLOWatchdog
from ..metrics.meters import EgressRecorder
from ..metrics.stats import percentile
from ..middlebox.registry import available, create
from ..net import TrafficGenerator, balanced_flows
from ..net.flowgen import WorkloadGenerator, WorkloadSpec
from ..orchestration import (
    CloudNetwork,
    Orchestrator,
    OrchestratorEnsemble,
    place_chain,
)
from ..orchestration.brownout import BrownoutController
from ..orchestration.election import ElectionConfig
from ..orchestration.orchestrator import FailureEvent
from ..sim import RandomStreams, Simulator
from ..telemetry import Telemetry
from .auditor import InvariantAuditor, InvariantViolation, ShadowOracle
from .monkey import ChaosMonkey
from .plan import IMPAIRED_DELIVERY, FaultInjector, FaultSpec

__all__ = ["Scenario", "Step", "Monkey", "Run", "run", "CHECKS",
           "CTRLPLANE_ELECTION", "FTC_ONLY", "ORACLE_CHECKS", "mbox",
           "monitors"]

def mbox(kind: str, **params) -> Tuple:
    """A middlebox as hashable data, ``(kind, ((param, value), ...))``:
    what :func:`run` hands to :func:`repro.middlebox.create`."""
    return kind, tuple(sorted(params.items()))


def monitors(n: int, n_threads: int = 2, sharing_level: int = 1) -> Tuple:
    """Ch-n (:func:`repro.middlebox.ch_n`'s Monitors), as data."""
    return tuple(mbox("monitor", name=f"monitor{i + 1}",
                      sharing_level=sharing_level, n_threads=n_threads)
                 for i in range(n))


#: Election timing of every ensemble the runner builds: tight enough
#: that a leader crash fails over well inside a schedule, loose enough
#: that renewal rounds (bounded by the election retry budget) never
#: starve a healthy leader's lease.
CTRLPLANE_ELECTION = ElectionConfig(lease_s=6e-3, renew_every_s=2e-3,
                                    candidacy_base_s=2e-3)


@dataclass(frozen=True)
class Step:
    """A timed action with a post-condition checked after the drain.

    Exactly one of ``crash`` (fail-stop that position), ``recover``
    (§5.2 recovery of it, directly: only without a control plane) or
    ``op`` (apply that reconfiguration -- through the control plane if
    any, else directly; an insert names its middlebox as :func:`mbox`
    data).  ``expect`` names the post-condition: ``"recovered"`` (the
    position was failed over), ``"committed"`` or ``"terminal"`` (the
    operation committed, or was formally aborted -- never left open).
    """

    at_s: float
    crash: Optional[int] = None
    op: Optional[ReconfigOp] = None
    recover: Optional[int] = None
    expect: Optional[str] = None


@dataclass(frozen=True)
class Monkey:
    """:class:`ChaosMonkey` parameters (it starts 10% into the run and
    samples into the run's one injector)."""

    #: The monkey stops once the run has injected this many faults,
    #: scripted ones included.
    max_faults: int
    mean_interval_s: float
    #: ``(kind, weight)`` pairs (default: the monkey's own mix).
    kind_weights: Optional[Tuple[Tuple[str, float], ...]] = None


#: Fields any other system must leave at their defaults.
FTC_ONLY = ("orchestrators", "steps", "faults", "monkey", "impair",
            "reliable_links", "admission_pps", "slo_p99_us",
            "audit_every_s", "region", "htm")

#: The end-of-run checks the egress oracle answers on any system.
ORACLE_CHECKS = ("egress-duplicate", "egress-order")


@dataclass(frozen=True)
class Scenario:
    """What to build, what to do to it, and what must hold afterwards."""

    #: The middleboxes, in chain order, as :func:`mbox` data.
    chain: Tuple[Tuple, ...]
    duration_s: float
    #: ``ftc | nf | ftmb | ftmb+snapshot`` (``build_system``).
    system: str = "ftc"
    f: int = 1
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS
    #: Worker threads per server, and the NIC queues traffic spreads over.
    threads: int = 2
    #: Per-hop ReliableChannels (§8); also makes the control plane
    #: corroborate suspects -- a lossy link must not read as a dead replica.
    reliable_links: bool = False
    #: ``(drop, dup, reorder, corrupt)`` on every chain link for the
    #: whole traffic window, healed when traffic stops.  Windowed
    #: impairment is an ``impair-data`` entry in ``faults``.
    impair: Optional[Tuple[float, float, float, float]] = None
    #: 0 = no control plane, 1 = an Orchestrator, n = an ensemble (§9).
    orchestrators: int = 0
    heartbeat_interval_s: float = 2e-3
    #: Deploy chain and control plane in this region of a CloudNetwork.
    region: Optional[str] = None
    #: The hybrid-TM fast path (§3.2) on every replica.
    htm: bool = False
    #: Constant rate over ``flows`` balanced flows, ``"deterministic"``
    #: (pktgen) or ``"poisson"`` (MoonGen), unless ``workload`` is set.
    rate_pps: float = 0.0
    flows: int = 8
    packet_size: int = 256
    arrivals: str = "deterministic"
    workload: Optional[WorkloadSpec] = None
    monkey: Optional[Monkey] = None
    faults: Tuple[FaultSpec, ...] = ()
    steps: Tuple[Step, ...] = ()
    #: Overload stack (§12): ingress admission budget, and the p99 SLO
    #: (us) whose watchdog drives a BrownoutController.
    admission_pps: Optional[float] = None
    slo_p99_us: Optional[float] = None
    #: Audit cadence while traffic runs (None: final audit only -- an
    #: audit is an engine event, which gated bench runs must not add).
    audit_every_s: Optional[float] = None
    #: Whether the final audit may assume quiescence (§5.2 convergence).
    quiescent: bool = True
    #: End-of-run checks by name (keys of :data:`CHECKS`).
    checks: Tuple[str, ...] = ()
    goodput_floor_pps: float = 0.0
    #: Measurement warm-up: egress meters restart here.
    warmup_s: float = 0.0
    drain_s: float = 5e-3
    #: Extra provenance stamped onto every violation, as (key, value).
    context: Tuple[Tuple[str, Any], ...] = ()

    @property
    def ftc(self) -> bool:
        return self.system.lower() == "ftc"

    def __post_init__(self):
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown end-of-run check(s) {unknown} "
                             f"(known: {', '.join(CHECKS)})")
        ftc_fields = [name for name in FTC_ONLY if getattr(self, name)]
        if ftc_fields and not self.ftc:
            raise ValueError(f"{', '.join(ftc_fields)} need system ftc "
                             f"(got {self.system})")
        positions = range(max(len(self.chain), self.f + 1))
        for step in self.steps:
            actions = [step.crash, step.op, step.recover]
            expects = (("committed", "terminal") if step.op is not None
                       else ("recovered",))
            if actions.count(None) != 2 or (
                    step.expect is not None and step.expect not in expects):
                raise ValueError(f"{step}: exactly one of crash/op/recover, "
                                 f"expecting one of {expects} or nothing")
            if step.recover is not None and self.orchestrators:
                raise ValueError(f"{step}: recover steps need "
                                 "orchestrators=0")
            if {step.crash, step.recover} - {None, *positions}:
                raise ValueError(f"{step}: the chain has positions "
                                 f"0..{len(positions) - 1}")
        kinds = available()
        for kind, _ in self.chain:
            if kind not in kinds:
                raise ValueError(f"unknown middlebox kind {kind!r}; "
                                 f"available: {kinds}")
        if self.threads < 1 or self.flows < 1:
            raise ValueError(f"threads and flows must be >= 1 (got "
                             f"{self.threads} and {self.flows})")
        if self.workload is None and not self.rate_pps > 0:
            raise ValueError(f"rate must be > 0 packets/second without a "
                             f"workload (got {self.rate_pps:g})")


@dataclass
class Run:
    """Everything one run left behind, for callers to read numbers off."""

    scenario: Scenario
    sim: Simulator
    chain: Any  # the built system: an FTCChain or a baseline chain
    oracle: ShadowOracle
    egress: EgressRecorder
    generator: Any
    control: Any = None
    admission: Optional[AdmissionControl] = None
    brownout: Optional[BrownoutController] = None
    #: The control plane's FailureEvents, or the ``recover`` steps'.
    failures: List[FailureEvent] = field(default_factory=list)
    #: ``(fire time, description)`` per injected fault.
    faults: List[Tuple[float, str]] = field(default_factory=list)
    #: One ReconfigReport per reconfiguration that reached an outcome.
    reconfigs: List = field(default_factory=list)
    cfg_inversions: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def ensemble(self) -> Optional[OrchestratorEnsemble]:
        return self.control if self.scenario.orchestrators > 1 else None

    def checked(self) -> "Run":
        """This run, or an error if any invariant or check failed."""
        if self.violations:
            raise AssertionError(
                f"{len(self.violations)} violation(s), no result:\n  "
                + "\n  ".join(str(v) for v in self.violations))
        return self


# -- end-of-run checks -------------------------------------------------------
# name -> fn(run) returning the violation detail, or None when it holds.

def _egress_loss(out: Run) -> Optional[str]:
    # Shedding at an admission gate is the only legal loss.
    admitted = (out.generator.sent if out.admission is None
                else out.admission.admitted)
    if out.oracle.released != admitted:
        return (f"released {out.oracle.released} != admitted {admitted} "
                f"of {out.generator.sent} sent")


def _egress_order(out: Run) -> Optional[str]:
    if out.oracle.out_of_order:
        return f"{out.oracle.out_of_order} per-flow order inversions"


def _egress_duplicate(out: Run) -> Optional[str]:
    if out.oracle.duplicate_releases:
        return f"{out.oracle.duplicate_releases} duplicate releases"


def _cfg_monotonic(out: Run) -> Optional[str]:
    if out.cfg_inversions:
        return (f"{out.cfg_inversions} per-flow config-version "
                f"inversions at egress")


def _spurious_failover(out: Run) -> Optional[str]:
    if out.failures:
        return (f"{len(out.failures)} failovers under a lossy-but-alive "
                f"data plane")


def _missed_failover(out: Run) -> Optional[str]:
    chain = out.chain
    failed = [p for p in range(chain.n_positions)
              if chain.server_at(p).failed]
    quorum = out.ensemble is None or out.ensemble.has_quorum
    if failed and not chain.degraded and quorum:
        return (f"positions {failed} still failed at quiescence with a "
                f"live control plane")


def _goodput_floor(out: Run) -> Optional[str]:
    goodput = out.oracle.released / out.scenario.duration_s
    if goodput < out.scenario.goodput_floor_pps:
        return (f"goodput {goodput:.0f}pps < floor "
                f"{out.scenario.goodput_floor_pps:.0f}pps")


CHECKS = {
    "egress-loss": _egress_loss,
    "egress-order": _egress_order,
    "egress-duplicate": _egress_duplicate,
    "cfg-monotonic": _cfg_monotonic,
    "spurious-failover": _spurious_failover,
    "missed-failover": _missed_failover,
    "goodput-floor": _goodput_floor,
}


def _step_violations(out: Run) -> List[Tuple[str, str]]:
    """Post-conditions of the timed steps, checked after the drain."""
    found = []
    steps, failures = out.scenario.steps, out.failures
    for step in steps:
        position = step.crash if step.recover is None else step.recover
        if step.expect == "recovered" and not any(
                event.recovered and position in event.positions
                for event in failures):
            found.append(("missed-failover",
                          f"position {position} crashed at "
                          f"{step.at_s * 1e3:.2f}ms was never recovered"))
    # A leader killed mid-switch may leave its successor unable to
    # rebuild an operation; it then formally aborts it -- terminal.
    aborted = [f"{r.op.kind if r.op else 'closed'}: {r.detail}"
               for r in out.reconfigs if r.aborted]
    committed = sum(1 for r in out.reconfigs if r.committed)
    for expect, reached in (("committed", committed),
                            ("terminal", committed + len(aborted))):
        wanted = sum(step.expect == expect for step in steps)
        if reached < wanted:
            found.append((f"reconfig-not-{expect}",
                          f"only {reached}/{wanted} reconfigurations "
                          f"{expect} (aborted: {aborted})"))
    return found


# -- the run loop ------------------------------------------------------------

def _wire_brownout(sim, sc, chain, egress, admission, control, telemetry):
    """SLO watchdog on *windowed* p99 driving a BrownoutController.

    Brownout must see pressure clear, so the probe differences the
    egress sampler between ticks (a cumulative p99 would be dominated
    by a flash forever).  Under an ensemble every transition goes
    through the leader's command guard (the write-ahead quorum journal).
    """
    seen = [0]

    def p99_window_us():
        samples = egress.latency.samples
        start, seen[0] = seen[0], len(samples)
        if len(samples) <= start:
            return None
        return percentile(samples[start:], 99) * 1e6

    watchdog = SLOWatchdog(
        sim, [SLOObjective("p99_latency_us", "<=", sc.slo_p99_us)],
        probes={"p99_latency_us": p99_window_us}, telemetry=telemetry)
    watchdog.start()
    return watchdog, BrownoutController(
        sim, watchdog, admission=admission, buffer=chain.buffer,
        journal=(control._journal_brownout if sc.orchestrators > 1
                 else None),
        telemetry=telemetry)


def run(scenario: Scenario, telemetry=None, profiler=None,
        on_start=None) -> Run:
    """Build, drive, audit and collect one scenario.

    ``telemetry`` is the bundle every component reports into (default:
    none; a bare ``profiler`` gets a trace-less one), ``profiler`` is
    also installed on the simulator, and ``on_start(run)`` fires once
    everything is built and armed, before the first event (tracing runs
    attach samplers there, ``repro report`` its SLO watchdog).
    """
    sc = scenario
    sim = Simulator()
    if profiler is not None:
        sim.profiler = profiler
        if telemetry is None:
            telemetry = Telemetry(max_trace_events=0, profiler=profiler)

    # -- build ----------------------------------------------------------------
    egress = sink = EgressRecorder(sim)
    newest_cfg = {}
    if "cfg-monotonic" in sc.checks:
        def sink(packet):
            # Once a flow egresses a packet stamped with config v, no
            # packet of that flow stamped with an older one may follow.
            cfg = packet.meta.get("cfg", 0)
            if cfg < newest_cfg.get(packet.flow, 0):
                out.cfg_inversions += 1
            else:
                newest_cfg[packet.flow] = cfg
            egress(packet)
    oracle = ShadowOracle(inner=sink,
                          track_order="egress-order" in sc.checks)
    admission = None
    if sc.admission_pps is not None:
        admission = AdmissionControl(
            sim, rate_pps=sc.admission_pps, bus=BackpressureBus(),
            telemetry=telemetry)
    net = None
    if sc.region is not None:
        net = CloudNetwork(sim, hop_delay_s=sc.costs.hop_delay_s,
                           bandwidth_bps=sc.costs.bandwidth_bps,
                           rtt_jitter_frac=0.0, seed=sc.seed)
    chain = build_system(
        sc.system, sim, [create(kind, **dict(params))
                         for kind, params in sc.chain], oracle,
        costs=sc.costs, n_threads=sc.threads, f=sc.f, seed=sc.seed, net=net,
        telemetry=telemetry, reliable_links=sc.reliable_links,
        admission=admission, use_htm=sc.htm)
    if sc.region is not None:
        place_chain(chain, [sc.region] * chain.n_positions)

    # -- start ----------------------------------------------------------------
    chain.start()
    control = ensemble = None
    if sc.orchestrators > 1:
        control = ensemble = OrchestratorEnsemble(
            sim, chain, n=sc.orchestrators, election=CTRLPLANE_ELECTION,
            heartbeat_interval_s=sc.heartbeat_interval_s,
            corroborate_suspects=sc.reliable_links, region=sc.region)
    elif sc.orchestrators == 1:
        control = Orchestrator(
            sim, chain, heartbeat_interval_s=sc.heartbeat_interval_s,
            corroborate_suspects=sc.reliable_links, region=sc.region)
    if control is not None:
        control.start()
    if sc.workload is not None:
        generator = WorkloadGenerator(sim, chain.ingress, sc.workload,
                                      n_queues=sc.threads,
                                      streams=RandomStreams(sc.seed))
    else:
        generator = TrafficGenerator(
            sim, chain.ingress, rate_pps=sc.rate_pps,
            flows=balanced_flows(sc.flows, sc.threads),
            packet_size=sc.packet_size, arrivals=sc.arrivals,
            streams=RandomStreams(sc.seed), name=f"gen-{sc.seed}")
    watchdog = brownout = None
    if sc.slo_p99_us is not None:
        watchdog, brownout = _wire_brownout(
            sim, sc, chain, egress, admission, control, telemetry)
    out = Run(scenario=sc, sim=sim, chain=chain, oracle=oracle,
              egress=egress, generator=generator, control=control,
              admission=admission, brownout=brownout)

    # -- arm ------------------------------------------------------------------
    # One injector applies every fault of the run: the scripted specs,
    # the steps' crashes, the whole-window impairment and the monkey's.
    monkey = auditor = injector = None
    if sc.ftc:
        auditor = InvariantAuditor(
            chain, oracle=oracle, orchestrator=control, brownout=brownout,
            context={"seed": sc.seed, **dict(sc.context)})
        injector = FaultInjector(chain, control, sc.faults,
                                 ensemble=ensemble)
    if sc.monkey is not None:
        monkey = ChaosMonkey(
            injector, mean_interval_s=sc.monkey.mean_interval_s,
            max_faults=sc.monkey.max_faults,
            start_after_s=sc.duration_s * 0.1,
            kind_weights=sc.monkey.kind_weights)
        monkey.start()
    if injector is not None:
        injector.start()
    if sc.impair is not None:
        drop, dup, reorder, corrupt = sc.impair
        injector._apply(FaultSpec(
            kind=IMPAIRED_DELIVERY, drop_rate=drop, dup_rate=dup,
            reorder_rate=reorder, corrupt_rate=corrupt))

    def apply_direct(op):
        out.reconfigs.append((yield from apply_reconfig(chain, op)))

    def submit(op):
        if control is None:
            sim.process(apply_direct(op), name=f"reconfig-{op.kind}")
        elif sim.now <= sc.duration_s:
            # A mid-failover ensemble may briefly have no acting
            # leader; re-submit until one exists or traffic stops.
            try:
                control.request_reconfig(op)
            except ReconfigError:
                sim.schedule_callback(2e-3, lambda: submit(op))

    def recover(position):
        at = sim.now
        report = yield sim.process(recover_positions(chain, [position]))
        out.failures.append(FailureEvent([position], at, 0.0, report))

    for step in sc.steps:
        if step.op is not None:
            op = step.op
            if op.kind == "insert":
                kind, params = op.middlebox
                op = replace(op, middlebox=create(kind, **dict(params)))
            sim.schedule_callback(step.at_s, lambda op=op: submit(op))
        elif step.recover is not None:
            sim.schedule_callback(
                step.at_s, lambda p=step.recover: sim.process(recover(p)))
        else:
            crash = FaultSpec(kind="crash", at_s=step.at_s,
                              position=step.crash)
            sim.schedule_callback(step.at_s,
                                  lambda spec=crash: injector._apply(spec))
    if on_start is not None:
        on_start(out)

    # -- run: periodic audit, stop traffic, heal, drain, final audit ----------
    def periodic_audit():
        auditor.audit()
        if sim.now + sc.audit_every_s < sc.duration_s:
            sim.schedule_callback(sc.audit_every_s, periodic_audit)

    if sc.audit_every_s is not None:
        sim.schedule_callback(sc.audit_every_s, periodic_audit)
    if sc.warmup_s:
        sim.run(until=sc.warmup_s)
        egress.throughput.start_window()
        egress.latency.start_after(sc.warmup_s)
        if telemetry is not None:
            telemetry.start_window(sim.now)
    sim.run(until=sc.duration_s)
    generator.stop()
    if monkey is not None:
        # The monkey cuts and impairs the control plane on timers; close
        # whatever is still open so the drain converges.
        monkey.stop()
        chain.net.heal()
        chain.net.clear_impairment()
    if sc.impair is not None:
        chain.net.clear_data_impairment()
    sim.run(until=sc.duration_s + sc.drain_s)
    if auditor is not None:
        auditor.audit(quiescent=sc.quiescent)

    # -- collect --------------------------------------------------------------
    if control is not None:
        out.failures = control.history
        out.reconfigs = list(control.reconfig_history)
    if injector is not None:
        out.faults = injector.injected
    found = ([(name, CHECKS[name](out)) for name in sc.checks]
             + _step_violations(out))
    out.violations = ([] if auditor is None else list(auditor.violations)) + [
        InvariantViolation(invariant=name, detail=detail, at_s=sim.now)
        for name, detail in found if detail]
    if watchdog is not None:
        watchdog.stop()
    if control is not None:
        control.stop()
    return out
