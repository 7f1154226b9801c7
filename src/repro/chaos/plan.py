"""The fault vocabulary: :class:`FaultSpec`, its registry, its injector.

A :class:`FaultSpec` names one fault -- crash this position at that
time, crash a position the moment recovery reaches a given phase,
impair the control plane for a window.  One registry (``_KINDS``)
gives each of the :data:`FAULT_KINDS` its handler, its ``describe()``
text and its target rule, and :class:`FaultInjector` is the only code
that applies a fault: scripted plans (a :class:`FaultPlan`, or
``Scenario.faults``) and the randomized
:class:`~repro.chaos.monkey.ChaosMonkey`, which samples specs and hands
them over, both go through it.  Every injection is recorded with its
firing time, and on the timeline as ``fault-injected``, so a failing
soak schedule can be replayed exactly from its seed (see PROTOCOL.md,
"Failure model & chaos testing").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.chain import FTCChain
from ..orchestration.orchestrator import Orchestrator

__all__ = ["FaultSpec", "FaultPlan", "FaultInjector", "FAULT_KINDS",
           "IMPAIRED_DELIVERY", "RECONFIG_FAULT_KINDS",
           "OVERLOAD_FAULT_KINDS"]

#: The data-plane adversity kind (PROTOCOL.md §8): chain links drop,
#: duplicate, reorder, and corrupt packets for a window.
IMPAIRED_DELIVERY = "impair-data"

#: Control-plane fault kinds (PROTOCOL.md §9): kill an ensemble
#: member, cut one off from everything else, or freeze the leader past
#: its lease so it wakes up stale.  All three need an
#: :class:`~repro.orchestration.ensemble.OrchestratorEnsemble`.
ORCH_FAULT_KINDS = ("orch-crash", "orch-partition", "stale-leader-resume")

#: Live-reconfiguration fault kinds (PROTOCOL.md §11): crash a chain
#: position the instant a reconfiguration reaches a phase, kill the
#: ensemble leader mid-switch, or fire a reconfiguration request while
#: a recovery is in flight.
RECONFIG_FAULT_KINDS = ("crash-during-reconfig", "leader-failover-mid-switch",
                        "reconfig-during-recovery")

#: Overload fault kinds (PROTOCOL.md §12): multiply the workload
#: generator's rate for a window, slow one middlebox's per-packet
#: cycle cost, or squeeze the egress buffer's held-set bound.
OVERLOAD_FAULT_KINDS = ("flash-crowd", "slow-middlebox", "queue-pressure")

#: The stream victims are drawn from, by the monkey and by the injector
#: for a ``crash-during-recovery`` spec without a position.
_SAMPLER_STREAM = "chaos-monkey"


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what the registry's ``kind`` does, to which target.

    Timed kinds fire at ``at_s`` (simulated seconds); several specs
    with one ``at_s`` express correlated faults.  A kind with a phase
    hook (``*-during-*``, ``leader-failover-mid-switch``, and any
    ``orch-*`` kind given a ``phase``) is armed at ``at_s`` and fires
    when a recovery or reconfiguration reaches ``phase`` (PROTOCOL.md
    §4 lists every kind with its target rule).  ``position`` is a chain
    position, or a middlebox index for ``slow-middlebox``; ``member``
    an ensemble member (None: the acting leader); ``duration_s`` the
    window after which windowed kinds heal.
    """

    kind: str
    at_s: float = 0.0
    position: Optional[int] = None
    phase: Optional[str] = None
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    extra_delay_s: float = 0.0
    delay_jitter_s: float = 0.0
    duration_s: Optional[float] = None
    member: Optional[int] = None
    restart_after_s: Optional[float] = None
    operation: Optional[str] = None
    factor: float = 4.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.phase is None and self.kind in _DEFAULT_PHASE:
            object.__setattr__(self, "phase", _DEFAULT_PHASE[self.kind])
        if self.kind in OVERLOAD_FAULT_KINDS:
            if self.duration_s is None:
                raise ValueError(f"{self.kind} faults need a duration_s")
            if self.factor <= 1.0:
                raise ValueError(f"{self.kind} factor must be > 1")
        if self.kind == "crash" and self.position is None:
            raise ValueError("crash faults need a position")
        if self.kind == "crash-during-recovery" and self.phase is None:
            raise ValueError("crash-during-recovery faults need a phase")
        if self.kind == "reconfig-during-recovery" and self.operation is None:
            raise ValueError("reconfig-during-recovery faults need an "
                             "operation descriptor")
        if (self.kind in ("orch-partition", "stale-leader-resume")
                and self.duration_s is None):
            raise ValueError(f"{self.kind} faults need a duration_s")
        if self.kind in ("impair-control", IMPAIRED_DELIVERY):
            for name in ("drop_rate", "dup_rate", "reorder_rate",
                         "corrupt_rate"):
                value = getattr(self, name)
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} must be a probability in "
                                     f"[0, 1], got {value!r}")

    def describe(self) -> str:
        when = f"{self.at_s * 1e3:.2f}ms"
        if _armed(self):
            when = f"(armed @ {when})"
        return f"{_KINDS[self.kind].text(self)} {when}"


def _armed(spec: FaultSpec) -> bool:
    """Whether ``spec`` waits for a phase rather than a time."""
    return spec.phase is not None and _KINDS[spec.kind].hook is not None


def _window(spec: FaultSpec) -> str:
    return ("" if spec.duration_s is None
            else f" for {spec.duration_s * 1e3:.2f}ms")


def _p(position: Optional[int], default: str) -> str:
    return default if position is None else f"p{position}"


def _orch_text(spec: FaultSpec) -> str:
    who = "leader" if spec.member is None else f"m{spec.member}"
    return f"{spec.kind} {who}{_window(spec)}"


def _overload_text(spec: FaultSpec) -> str:
    where = "" if spec.position is None else f" p{spec.position}"
    return f"{spec.kind}{where} x{spec.factor:g}{_window(spec)}"


class _Kind(NamedTuple):
    #: The FaultInjector method that applies it.
    handler: str
    #: Its ``describe()`` text, without the time.
    text: Callable[[FaultSpec], str]
    #: What it acts on: ``position`` (a chain position, range-checked),
    #: ``middlebox`` (a middlebox index, range-checked), ``member`` (an
    #: ensemble member: needs an ensemble), ``workload`` (needs a
    #: workload generator), or None (the network or the buffer).
    target: Optional[str]
    #: The orchestrator hook list an armed spec waits on.
    hook: Optional[str] = None


#: kind -> how it is applied, described and targeted.
_KINDS: Dict[str, _Kind] = {
    "crash": _Kind("_crash", lambda s: f"crash p{s.position}", "position"),
    "crash-during-recovery": _Kind(
        "_crash", lambda s: (f"crash {_p(s.position, 'a gated victim')} "
                             f"at recovery phase {s.phase!r}"),
        "position", "recovery"),
    "impair-control": _Kind(
        "_impair", lambda s: (f"impair control drop={s.drop_rate} "
                              f"dup={s.dup_rate} "
                              f"delay={s.extra_delay_s * 1e3:.2f}ms"
                              f"{_window(s)}"), None),
    IMPAIRED_DELIVERY: _Kind(
        "_impair_data", lambda s: (f"impair data drop={s.drop_rate} "
                                   f"dup={s.dup_rate} "
                                   f"reorder={s.reorder_rate} "
                                   f"corrupt={s.corrupt_rate}{_window(s)}"),
        None),
    "orch-crash": _Kind("_orch_crash", _orch_text, "member", "recovery"),
    "orch-partition": _Kind("_orch_partition", _orch_text, "member",
                            "recovery"),
    "stale-leader-resume": _Kind("_stale_leader_resume", _orch_text,
                                 "member", "recovery"),
    "crash-during-reconfig": _Kind(
        "_crash", lambda s: ("crash " + _p(s.position, "the op's position")
                             + f" at reconfig phase {s.phase!r}"),
        "position", "reconfig"),
    "leader-failover-mid-switch": _Kind(
        "_leader_failover",
        lambda s: f"crash the leader at reconfig phase {s.phase!r}",
        "member", "reconfig"),
    "reconfig-during-recovery": _Kind(
        "_request_reconfig", lambda s: (f"request {s.operation!r} at "
                                        f"recovery phase {s.phase!r}"),
        None, "recovery"),
    "flash-crowd": _Kind("_flash_crowd", _overload_text, "workload"),
    "slow-middlebox": _Kind("_slow_middlebox", _overload_text, "middlebox"),
    "queue-pressure": _Kind("_queue_pressure", _overload_text, None),
}

#: Supported fault kinds.
FAULT_KINDS = tuple(_KINDS)

#: The phase an armed kind waits for when its spec names none.
_DEFAULT_PHASE = {"crash-during-reconfig": "draining",
                  "leader-failover-mid-switch": "switching",
                  "reconfig-during-recovery": "fetching"}


@dataclass
class FaultPlan:
    """An ordered, deterministic fault schedule."""

    faults: List[FaultSpec] = field(default_factory=list)

    def describe(self) -> List[str]:
        return [spec.describe() for spec in sorted(self.faults,
                                                   key=lambda s: s.at_s)]


class FaultInjector:
    """Applies :class:`FaultSpec`\\ s to a chain + orchestrator.

    :meth:`start` checks every spec of ``plan`` against its kind's
    target rule and schedules it; the monkey hands its sampled specs
    to ``_apply`` directly.  A spec waiting on a phase stays armed
    until it fires: a recovery-phase spec until it finds its target, a
    reconfiguration-phase spec only until its first matching phase.
    """

    def __init__(self, chain: FTCChain, orchestrator: Optional[Orchestrator],
                 plan: FaultPlan, seed: int = 0, ensemble=None,
                 workload=None):
        self.chain = chain
        self.orchestrator = orchestrator
        self.plan = plan
        #: Seeds the network's impairment streams.
        self.seed = seed
        #: The :class:`~repro.orchestration.ensemble.OrchestratorEnsemble`
        #: the ``orch-*`` fault kinds act on.
        self.ensemble = ensemble
        #: The :class:`~repro.net.flowgen.WorkloadGenerator` the
        #: ``flash-crowd`` fault kind boosts.
        self.workload = workload
        self._rng = chain.streams.stream(_SAMPLER_STREAM)
        #: (fire time, human-readable description) per executed fault.
        self.injected: List[Tuple[float, str]] = []
        #: hook name -> the specs waiting on it, and its callback.
        self._armed: Dict[str, List[FaultSpec]] = {"recovery": [],
                                                   "reconfig": []}
        self._hooks = {hook: partial(self._fire, hook)
                       for hook in self._armed}

    def start(self) -> None:
        for spec in self.plan.faults:
            self._check(spec.kind, spec.position, _armed(spec))
        sim = self.chain.sim
        for spec in self.plan.faults:
            sim.schedule_callback(
                max(0.0, spec.at_s - sim.now),
                lambda spec=spec: self._apply(spec))

    def _check(self, kind: str, position: Optional[int] = None,
               armed: bool = False) -> None:
        """``kind``'s target rule: a ValueError when this injector
        lacks its target or ``position`` is out of range."""
        rule = _KINDS[kind]
        if rule.target == "member" and self.ensemble is None:
            raise ValueError(f"{kind} faults need an orchestrator ensemble")
        if rule.target == "workload" and self.workload is None:
            raise ValueError(
                f"{kind} faults need a workload generator target")
        if armed and self.orchestrator is None:
            raise ValueError(f"{kind} faults need an orchestrator (its "
                             f"{rule.hook} hooks carry the phase signal)")
        limit = {"position": self.chain.n_positions,
                 "middlebox": self.chain.n_mboxes}.get(rule.target)
        if position is not None and limit is not None \
                and not 0 <= position < limit:
            raise ValueError(f"{kind} position {position} is out of range "
                             f"(0..{limit - 1})")

    def _apply(self, spec: FaultSpec) -> None:
        """Apply ``spec`` now, or arm it on its phase hook."""
        rule = _KINDS[spec.kind]
        if not _armed(spec):
            getattr(self, rule.handler)(spec)
            return
        hooks = getattr(self.orchestrator, f"{rule.hook}_hooks")
        if self._hooks[rule.hook] not in hooks:
            hooks.append(self._hooks[rule.hook])
        self._armed[rule.hook].append(spec)

    def _fire(self, hook: str, phase: str, positions) -> None:
        for spec in [s for s in self._armed[hook] if s.phase == phase]:
            before = len(self.injected)
            getattr(self, _KINDS[spec.kind].handler)(spec, phase, positions)
            if hook == "reconfig" or len(self.injected) > before:
                self._armed[hook].remove(spec)

    def _record(self, what: str, positions: Tuple[int, ...] = ()) -> None:
        now = self.chain.sim.now
        self.injected.append((now, what))
        self.chain.telemetry.timeline.record(
            "fault-injected", positions, detail=what, t=now)

    def _victim(self, busy) -> Optional[int]:
        """A random position the f-budget gate lets fail, if any: not
        ``busy`` or lost, not down, and :meth:`FTCChain.safe_to_fail`."""
        pending = set(busy) | self.orchestrator.lost_positions
        chain = self.chain
        candidates = [p for p in range(chain.n_positions)
                      if p not in pending and not chain.server_at(p).failed
                      and chain.safe_to_fail(p, pending)]
        if not candidates:
            return None
        return candidates[self._rng.randrange(len(candidates))]

    # -- handlers: one per kind, named by the registry ------------------------

    def _crash(self, spec: FaultSpec, phase: Optional[str] = None,
               positions=()) -> None:
        target = spec.position
        if target is None and spec.kind == "crash-during-recovery":
            target = self._victim(positions)
        elif target is None:  # crash-during-reconfig: the op's position
            target = positions[0] if positions else 0
        # An insert names a position past the chain's end; a removal may
        # have shrunk the chain since start() checked the spec.
        if target is None or target >= self.chain.n_positions \
                or self.chain.server_at(target).failed:
            return  # no safe victim, no such position, or already down
        self.chain.fail_position(target)
        during = ("" if phase is None else
                  f" during {_KINDS[spec.kind].hook} phase {phase!r} "
                  f"of {list(positions)}")
        self._record(f"crash p{target}{during}", positions=(target,))

    def _impair(self, spec: FaultSpec) -> None:
        self.chain.net.impair(
            drop_rate=spec.drop_rate, dup_rate=spec.dup_rate,
            extra_delay_s=spec.extra_delay_s,
            delay_jitter_s=spec.delay_jitter_s,
            duration_s=spec.duration_s, seed=self.seed)
        self._record(_KINDS[spec.kind].text(spec))

    def _impair_data(self, spec: FaultSpec) -> None:
        self.chain.net.impair_data(
            drop_rate=spec.drop_rate, dup_rate=spec.dup_rate,
            reorder_rate=spec.reorder_rate, corrupt_rate=spec.corrupt_rate,
            duration_s=spec.duration_s, seed=self.seed)
        self._record(_KINDS[spec.kind].text(spec))

    def _member(self, spec: FaultSpec):
        """The targeted live ensemble member: its index or the leader."""
        member = (self.ensemble.leader if spec.member is None
                  else self.ensemble.members[spec.member])
        return None if member is None or member.crashed else member

    def _orch_crash(self, spec: FaultSpec, *_fired) -> None:
        member = self._member(spec)
        if member is None:
            return  # no current leader / already down: nothing to kill
        member.crash()
        self._record(f"orch-crash m{member.index}")
        if spec.restart_after_s is not None:
            self.chain.sim.schedule_callback(
                spec.restart_after_s, member.restart)

    def _orch_partition(self, spec: FaultSpec, *_fired) -> None:
        member = self._member(spec)
        if member is None:
            return
        net = self.chain.net
        others = [name for name in net.servers
                  if name != member.server_name]
        token = net.partition([member.server_name], others)
        self.chain.sim.schedule_callback(
            spec.duration_s, lambda: net.heal(token))
        self._record(f"orch-partition m{member.index}{_window(spec)}")

    def _stale_leader_resume(self, spec: FaultSpec, *_fired) -> None:
        member = self._member(spec)
        if member is None or member.paused:
            return
        member.pause(spec.duration_s)
        self._record(f"pause m{member.index}{_window(spec)}"
                     + (" (leader: stale resume ahead)"
                        if member.is_leader else ""))

    def _leader_failover(self, spec: FaultSpec, phase: str,
                         positions) -> None:
        leader = self.ensemble.leader
        if leader is None or leader.crashed:
            return
        leader.crash()
        self._record(f"orch-crash m{leader.index} (leader) at reconfig "
                     f"phase {phase!r} of {list(positions)}")

    def _request_reconfig(self, spec: FaultSpec, phase: str,
                          positions) -> None:
        from ..core.reconfig import ReconfigOp
        op = ReconfigOp.parse(spec.operation)
        if op is None:
            return
        self.orchestrator.request_reconfig(op)
        self._record(f"reconfig {spec.operation!r} requested during "
                     f"recovery phase {phase!r} of {positions}")

    def _flash_crowd(self, spec: FaultSpec) -> None:
        workload = self.workload
        workload.boost *= spec.factor

        def subside():
            workload.boost /= spec.factor

        self.chain.sim.schedule_callback(spec.duration_s, subside)
        self._record(_KINDS[spec.kind].text(spec))

    def _slow_middlebox(self, spec: FaultSpec) -> None:
        mbox = self.chain.middleboxes[spec.position or 0]
        original = mbox.processing_cycles
        base = (original if original is not None
                else self.chain.costs.processing_cycles)
        mbox.processing_cycles = base * spec.factor

        def restore():
            mbox.processing_cycles = original

        self.chain.sim.schedule_callback(spec.duration_s, restore)
        self._record(f"slow-middlebox {mbox.name} x{spec.factor:g}"
                     f"{_window(spec)}")

    def _queue_pressure(self, spec: FaultSpec) -> None:
        buffer = self.chain.buffer
        original = buffer.max_held
        buffer.max_held = max(64, int(original / spec.factor))

        def restore():
            buffer.max_held = original

        self.chain.sim.schedule_callback(spec.duration_s, restore)
        self._record(f"queue-pressure buffer bound {original} -> "
                     f"{buffer.max_held}{_window(spec)}")
