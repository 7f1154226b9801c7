"""Scripted fault schedules.

A :class:`FaultPlan` is a deterministic list of :class:`FaultSpec`
entries -- crash this position at that time, crash a position the
moment recovery reaches a given phase, impair the control plane for a
window.  :class:`FaultInjector` arms a plan against a running
chain/orchestrator pair; every injection is recorded with its firing
time so a failing soak schedule can be replayed exactly from its seed
(see PROTOCOL.md, "Failure model & chaos testing").

Scripted plans are the precision tool; for randomized soaking see
:class:`repro.chaos.monkey.ChaosMonkey`, which samples specs like
these from configurable distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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

#: Supported fault kinds.
FAULT_KINDS = ("crash", "crash-during-recovery", "impair-control",
               IMPAIRED_DELIVERY) + ORCH_FAULT_KINDS + RECONFIG_FAULT_KINDS \
              + OVERLOAD_FAULT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``kind="crash"``
        Fail-stop ``position`` at ``at_s`` (simulated seconds).  Several
        specs with the same ``at_s`` express a correlated multi-crash.
    ``kind="crash-during-recovery"``
        Arm a recovery-phase hook from ``at_s`` on: the first time a
        recovery run reaches ``phase`` (one of
        ``repro.core.RECOVERY_PHASES``), fail ``position``.  This is
        how a fetch source is killed mid-transfer.
    ``kind="impair-control"``
        From ``at_s``, drop/duplicate/delay control-plane messages for
        ``duration_s`` (see :meth:`repro.net.Network.impair`).
    ``kind="impair-data"`` (:data:`IMPAIRED_DELIVERY`)
        From ``at_s``, chain links drop/duplicate/reorder/corrupt data
        packets for ``duration_s``
        (see :meth:`repro.net.Network.impair_data`).
    ``kind="orch-crash"``
        Fail-stop ensemble ``member`` at ``at_s`` (the current leader
        when ``member`` is None); ``restart_after_s`` optionally brings
        it back as a follower.  With ``phase`` set (any ``orch-*`` kind)
        the fault is armed at ``at_s`` and fires the first time a
        recovery reaches that phase with a member to hit.
    ``kind="orch-partition"``
        From ``at_s``, cut ensemble ``member`` (default: the leader)
        off from every other server for ``duration_s`` -- it keeps
        running but can reach neither its peers nor the chain.
    ``kind="stale-leader-resume"``
        At ``at_s``, freeze ``member`` (default: the leader) for
        ``duration_s``.  Freeze it past its lease and it wakes up still
        believing it leads -- the split-brain scenario epoch fencing
        must neutralize.
    ``kind="crash-during-reconfig"``
        Arm a reconfiguration-phase hook from ``at_s`` on: the first
        time a live reconfiguration (PROTOCOL.md §11) reaches ``phase``
        (one of ``repro.core.RECONFIG_PHASES``, default ``draining``),
        fail ``position`` (default: the operation's own position).
    ``kind="leader-failover-mid-switch"``
        Like ``crash-during-reconfig`` but kills the *ensemble leader*
        (needs an ensemble) when the reconfiguration reaches ``phase``
        (default ``switching``) -- the successor must resume or close
        the journaled operation.
    ``kind="reconfig-during-recovery"``
        Arm a recovery-phase hook from ``at_s`` on: when a recovery
        reaches ``phase`` (default ``fetching``), submit the
        reconfiguration described by ``operation`` (a
        :meth:`~repro.core.reconfig.ReconfigOp.describe` string) --
        the request must serialize behind the recovery, never corrupt
        it.
    ``kind="flash-crowd"``
        From ``at_s``, multiply the workload generator's offered load
        by ``factor`` for ``duration_s`` (needs a ``workload`` target
        on the injector).
    ``kind="slow-middlebox"``
        From ``at_s``, multiply middlebox ``position``'s per-packet
        processing cycles by ``factor`` for ``duration_s`` -- a hot
        middlebox becoming the bottleneck, the classic overload cause.
    ``kind="queue-pressure"``
        From ``at_s``, divide the egress buffer's held-set bound by
        ``factor`` for ``duration_s``, forcing backpressure to engage
        far below the normal watermark.
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
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
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
        if self.kind == "crash":
            return f"crash p{self.position} @ {self.at_s * 1e3:.2f}ms"
        if self.kind in ORCH_FAULT_KINDS:
            who = "leader" if self.member is None else f"m{self.member}"
            window = ("" if self.duration_s is None
                      else f" for {self.duration_s * 1e3:.2f}ms")
            return f"{self.kind} {who}{window} @ {self.at_s * 1e3:.2f}ms"
        if self.kind == "crash-during-recovery":
            return (f"crash p{self.position} at recovery phase "
                    f"{self.phase!r} (armed @ {self.at_s * 1e3:.2f}ms)")
        if self.kind == "crash-during-reconfig":
            who = ("the op's position" if self.position is None
                   else f"p{self.position}")
            return (f"crash {who} at reconfig phase "
                    f"{(self.phase or 'draining')!r} "
                    f"(armed @ {self.at_s * 1e3:.2f}ms)")
        if self.kind == "leader-failover-mid-switch":
            return (f"crash the leader at reconfig phase "
                    f"{(self.phase or 'switching')!r} "
                    f"(armed @ {self.at_s * 1e3:.2f}ms)")
        if self.kind == "reconfig-during-recovery":
            return (f"request {self.operation!r} at recovery phase "
                    f"{(self.phase or 'fetching')!r} "
                    f"(armed @ {self.at_s * 1e3:.2f}ms)")
        if self.kind in OVERLOAD_FAULT_KINDS:
            where = "" if self.position is None else f" p{self.position}"
            return (f"{self.kind}{where} x{self.factor:g} for "
                    f"{self.duration_s * 1e3:.2f}ms "
                    f"@ {self.at_s * 1e3:.2f}ms")
        if self.kind == IMPAIRED_DELIVERY:
            return (f"impair data drop={self.drop_rate} dup={self.dup_rate} "
                    f"reorder={self.reorder_rate} "
                    f"corrupt={self.corrupt_rate} "
                    f"@ {self.at_s * 1e3:.2f}ms")
        return (f"impair control drop={self.drop_rate} dup={self.dup_rate} "
                f"delay={self.extra_delay_s * 1e3:.2f}ms "
                f"@ {self.at_s * 1e3:.2f}ms")


@dataclass
class FaultPlan:
    """An ordered, deterministic fault schedule."""

    faults: List[FaultSpec] = field(default_factory=list)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.faults.append(spec)
        return self

    def crash(self, position: int, at_s: float) -> "FaultPlan":
        return self.add(FaultSpec(kind="crash", at_s=at_s, position=position))

    def crash_during_recovery(self, position: int, phase: str,
                              at_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultSpec(kind="crash-during-recovery", at_s=at_s,
                                  position=position, phase=phase))

    def impair_control(self, at_s: float, drop_rate: float = 0.0,
                       dup_rate: float = 0.0, extra_delay_s: float = 0.0,
                       delay_jitter_s: float = 0.0,
                       duration_s: Optional[float] = None) -> "FaultPlan":
        return self.add(FaultSpec(
            kind="impair-control", at_s=at_s, drop_rate=drop_rate,
            dup_rate=dup_rate, extra_delay_s=extra_delay_s,
            delay_jitter_s=delay_jitter_s, duration_s=duration_s))

    def impair_data(self, at_s: float, drop_rate: float = 0.0,
                    dup_rate: float = 0.0, reorder_rate: float = 0.0,
                    corrupt_rate: float = 0.0,
                    duration_s: Optional[float] = None) -> "FaultPlan":
        return self.add(FaultSpec(
            kind=IMPAIRED_DELIVERY, at_s=at_s, drop_rate=drop_rate,
            dup_rate=dup_rate, reorder_rate=reorder_rate,
            corrupt_rate=corrupt_rate, duration_s=duration_s))

    def orch_crash(self, at_s: float, member: Optional[int] = None,
                   restart_after_s: Optional[float] = None) -> "FaultPlan":
        return self.add(FaultSpec(kind="orch-crash", at_s=at_s,
                                  member=member,
                                  restart_after_s=restart_after_s))

    def orch_partition(self, at_s: float, duration_s: float,
                       member: Optional[int] = None) -> "FaultPlan":
        return self.add(FaultSpec(kind="orch-partition", at_s=at_s,
                                  member=member, duration_s=duration_s))

    def stale_leader_resume(self, at_s: float, duration_s: float,
                            member: Optional[int] = None) -> "FaultPlan":
        return self.add(FaultSpec(kind="stale-leader-resume", at_s=at_s,
                                  member=member, duration_s=duration_s))

    def crash_during_reconfig(self, phase: str = "draining",
                              position: Optional[int] = None,
                              at_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultSpec(kind="crash-during-reconfig", at_s=at_s,
                                  position=position, phase=phase))

    def leader_failover_mid_switch(self, phase: str = "switching",
                                   at_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultSpec(kind="leader-failover-mid-switch",
                                  at_s=at_s, phase=phase))

    def reconfig_during_recovery(self, operation: str,
                                 phase: str = "fetching",
                                 at_s: float = 0.0) -> "FaultPlan":
        return self.add(FaultSpec(kind="reconfig-during-recovery", at_s=at_s,
                                  operation=operation, phase=phase))

    def flash_crowd(self, at_s: float, duration_s: float,
                    factor: float = 4.0) -> "FaultPlan":
        return self.add(FaultSpec(kind="flash-crowd", at_s=at_s,
                                  duration_s=duration_s, factor=factor))

    def slow_middlebox(self, at_s: float, duration_s: float,
                       factor: float = 8.0,
                       position: Optional[int] = None) -> "FaultPlan":
        return self.add(FaultSpec(kind="slow-middlebox", at_s=at_s,
                                  duration_s=duration_s, factor=factor,
                                  position=position))

    def queue_pressure(self, at_s: float, duration_s: float,
                       factor: float = 16.0) -> "FaultPlan":
        return self.add(FaultSpec(kind="queue-pressure", at_s=at_s,
                                  duration_s=duration_s, factor=factor))

    def describe(self) -> List[str]:
        return [spec.describe() for spec in sorted(self.faults,
                                                   key=lambda s: s.at_s)]


class FaultInjector:
    """Arms a :class:`FaultPlan` against a chain + orchestrator."""

    def __init__(self, chain: FTCChain, orchestrator: Optional[Orchestrator],
                 plan: FaultPlan, seed: int = 0, ensemble=None,
                 workload=None):
        self.chain = chain
        self.orchestrator = orchestrator
        self.plan = plan
        self.seed = seed
        #: The :class:`~repro.orchestration.ensemble.OrchestratorEnsemble`
        #: the ``orch-*`` fault kinds act on.
        self.ensemble = ensemble
        #: The :class:`~repro.net.flowgen.WorkloadGenerator` the
        #: ``flash-crowd`` fault kind boosts.
        self.workload = workload
        #: (fire time, human-readable description) per executed fault.
        self.injected: List[Tuple[float, str]] = []
        self._armed_phase_specs: List[FaultSpec] = []
        self._armed_reconfig_specs: List[FaultSpec] = []
        self._armed_recovery_reconfigs: List[FaultSpec] = []

    def start(self) -> None:
        sim = self.chain.sim
        executors = self._executors = {
            "crash": self._crash,
            "crash-during-recovery": self._arm_phase_spec,
            IMPAIRED_DELIVERY: self._impair_data,
            "impair-control": self._impair,
            "orch-crash": self._orch_crash,
            "orch-partition": self._orch_partition,
            "stale-leader-resume": self._stale_leader_resume,
            "crash-during-reconfig": self._arm_reconfig_spec,
            "leader-failover-mid-switch": self._arm_reconfig_spec,
            "reconfig-during-recovery": self._arm_recovery_reconfig,
            "flash-crowd": self._flash_crowd,
            "slow-middlebox": self._slow_middlebox,
            "queue-pressure": self._queue_pressure,
        }
        for spec in self.plan.faults:
            if (spec.kind in ORCH_FAULT_KINDS
                    or spec.kind == "leader-failover-mid-switch") \
                    and self.ensemble is None:
                raise ValueError(
                    f"{spec.kind} faults need an orchestrator ensemble")
            if spec.kind == "flash-crowd" and self.workload is None:
                raise ValueError(
                    "flash-crowd faults need a workload generator target")
            run = executors[spec.kind]
            if spec.kind in ORCH_FAULT_KINDS and spec.phase is not None:
                run = self._arm_phase_spec
            sim.schedule_callback(
                max(0.0, spec.at_s - sim.now),
                lambda spec=spec, run=run: run(spec))

    # -- executors --------------------------------------------------------------

    def _record(self, what: str) -> None:
        self.injected.append((self.chain.sim.now, what))

    def _crash(self, spec: FaultSpec) -> None:
        position = spec.position
        if self.chain.server_at(position).failed:
            return  # already down (e.g. a correlated crash beat us to it)
        self.chain.fail_position(position)
        self._record(f"crash p{position}")

    def _impair(self, spec: FaultSpec) -> None:
        self.chain.net.impair(
            drop_rate=spec.drop_rate, dup_rate=spec.dup_rate,
            extra_delay_s=spec.extra_delay_s,
            delay_jitter_s=spec.delay_jitter_s,
            duration_s=spec.duration_s, seed=self.seed)
        self._record(spec.describe())

    def _impair_data(self, spec: FaultSpec) -> None:
        self.chain.net.impair_data(
            drop_rate=spec.drop_rate, dup_rate=spec.dup_rate,
            reorder_rate=spec.reorder_rate, corrupt_rate=spec.corrupt_rate,
            duration_s=spec.duration_s, seed=self.seed)
        self._record(spec.describe())

    def _member_for(self, spec: FaultSpec):
        """The targeted ensemble member: explicit index or the leader."""
        if spec.member is not None:
            return self.ensemble.members[spec.member]
        return self.ensemble.leader

    def _orch_crash(self, spec: FaultSpec) -> None:
        member = self._member_for(spec)
        if member is None or member.crashed:
            return  # no current leader / already down: nothing to kill
        member.crash()
        self._record(f"orch-crash m{member.index}")
        if spec.restart_after_s is not None:
            self.chain.sim.schedule_callback(
                spec.restart_after_s, member.restart)

    def _orch_partition(self, spec: FaultSpec) -> None:
        member = self._member_for(spec)
        if member is None or member.crashed:
            return
        net = self.chain.net
        others = [name for name in net.servers
                  if name != member.server_name]
        token = net.partition([member.server_name], others)
        self.chain.sim.schedule_callback(
            spec.duration_s, lambda: net.heal(token))
        self._record(f"orch-partition m{member.index} for "
                     f"{spec.duration_s * 1e3:.2f}ms")

    def _stale_leader_resume(self, spec: FaultSpec) -> None:
        member = self._member_for(spec)
        if member is None or member.crashed or member.paused:
            return
        member.pause(spec.duration_s)
        self._record(f"pause m{member.index} for "
                     f"{spec.duration_s * 1e3:.2f}ms"
                     + (" (leader: stale resume ahead)"
                        if member.is_leader else ""))

    def _arm_phase_spec(self, spec: FaultSpec) -> None:
        if self.orchestrator is None:
            raise ValueError(
                "crash-during-recovery faults need an orchestrator "
                "(its recovery hooks carry the phase signal)")
        if not self._armed_phase_specs:
            self.orchestrator.recovery_hooks.append(self._on_phase)
        self._armed_phase_specs.append(spec)

    def _on_phase(self, phase: str, positions: List[int]) -> None:
        for spec in list(self._armed_phase_specs):
            if spec.phase != phase:
                continue
            if spec.kind in ORCH_FAULT_KINDS:
                before = len(self.injected)
                self._executors[spec.kind](spec)
                if len(self.injected) > before:  # else: no member to hit yet
                    self._armed_phase_specs.remove(spec)
                continue
            target = spec.position
            if target is None or target in positions or \
                    self.chain.server_at(target).failed:
                continue
            self._armed_phase_specs.remove(spec)
            self.chain.fail_position(target)
            self._record(f"crash p{target} during recovery phase {phase!r} "
                         f"of {positions}")

    # -- reconfiguration fault kinds (PROTOCOL.md §11) ---------------------------

    def _arm_reconfig_spec(self, spec: FaultSpec) -> None:
        if self.orchestrator is None:
            raise ValueError(
                f"{spec.kind} faults need an orchestrator (its reconfig "
                "hooks carry the phase signal)")
        if not self._armed_reconfig_specs:
            self.orchestrator.reconfig_hooks.append(self._on_reconfig_phase)
        self._armed_reconfig_specs.append(spec)

    def _on_reconfig_phase(self, phase: str, positions) -> None:
        for spec in list(self._armed_reconfig_specs):
            want = spec.phase or ("switching"
                                  if spec.kind == "leader-failover-mid-switch"
                                  else "draining")
            if want != phase:
                continue
            self._armed_reconfig_specs.remove(spec)
            if spec.kind == "leader-failover-mid-switch":
                leader = self.ensemble.leader
                if leader is None or leader.crashed:
                    continue
                leader.crash()
                self._record(f"orch-crash m{leader.index} (leader) at "
                             f"reconfig phase {phase!r} of {list(positions)}")
            else:
                target = spec.position
                if target is None:
                    target = positions[0] if positions else 0
                if (target >= self.chain.n_positions
                        or self.chain.server_at(target).failed):
                    continue
                self.chain.fail_position(target)
                self._record(f"crash p{target} during reconfig phase "
                             f"{phase!r} of {list(positions)}")

    # -- overload fault kinds (PROTOCOL.md §12) ----------------------------------

    def _flash_crowd(self, spec: FaultSpec) -> None:
        workload = self.workload
        workload.boost *= spec.factor

        def subside():
            workload.boost /= spec.factor
            self._record(f"flash-crowd subsided (boost {workload.boost:g})")

        self.chain.sim.schedule_callback(spec.duration_s, subside)
        self._record(f"flash-crowd x{spec.factor:g} for "
                     f"{spec.duration_s * 1e3:.2f}ms")

    def _slow_middlebox(self, spec: FaultSpec) -> None:
        index = spec.position if spec.position is not None else 0
        index = min(index, self.chain.n_mboxes - 1)
        mbox = self.chain.middleboxes[index]
        original = mbox.processing_cycles
        base = (original if original is not None
                else self.chain.costs.processing_cycles)
        mbox.processing_cycles = base * spec.factor

        def restore():
            mbox.processing_cycles = original
            self._record(f"slow-middlebox {mbox.name} restored")

        self.chain.sim.schedule_callback(spec.duration_s, restore)
        self._record(f"slow-middlebox {mbox.name} x{spec.factor:g} for "
                     f"{spec.duration_s * 1e3:.2f}ms")

    def _queue_pressure(self, spec: FaultSpec) -> None:
        buffer = self.chain.buffer
        original = buffer.max_held
        buffer.max_held = max(64, int(original / spec.factor))

        def restore():
            buffer.max_held = original
            self._record("queue-pressure released")

        self.chain.sim.schedule_callback(spec.duration_s, restore)
        self._record(f"queue-pressure buffer bound {original} -> "
                     f"{buffer.max_held} for {spec.duration_s * 1e3:.2f}ms")

    def _arm_recovery_reconfig(self, spec: FaultSpec) -> None:
        if self.orchestrator is None:
            raise ValueError(
                "reconfig-during-recovery faults need an orchestrator")
        if not self._armed_recovery_reconfigs:
            self.orchestrator.recovery_hooks.append(
                self._on_recovery_reconfig)
        self._armed_recovery_reconfigs.append(spec)

    def _on_recovery_reconfig(self, phase: str, positions: List[int]) -> None:
        from ..core.reconfig import ReconfigOp
        for spec in list(self._armed_recovery_reconfigs):
            if (spec.phase or "fetching") != phase:
                continue
            self._armed_recovery_reconfigs.remove(spec)
            op = ReconfigOp.parse(spec.operation)
            if op is None:
                continue
            self.orchestrator.request_reconfig(op)
            self._record(f"reconfig {spec.operation!r} requested during "
                         f"recovery phase {phase!r} of {positions}")
