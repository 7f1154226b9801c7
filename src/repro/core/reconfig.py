"""Zero-loss live reconfiguration (PROTOCOL.md §11).

FTC's dependency vectors order transactions by state partition, not by
thread or by instance, which is what makes a running middlebox
*replaceable* under traffic (§4.3).  This module turns that property
into a reconfiguration subsystem: a versioned chain config with
strictly monotonic config versions (fenced through the same
:class:`~repro.core.fencing.EpochGate` as recovery commands) and a
two-phase apply protocol --

* **prepare**: spawn and warm the replacement instance (or validate the
  new classifier version) and journal the operation write-ahead through
  the control plane, so a failed-over leader resumes it idempotently;
* **switch**: park traffic bound for the affected position in a
  :class:`ReconfigHold` (FIFO -- packets release in arrival order, so
  nothing is dropped *or* reordered), drain the position to a quiesce
  point, migrate STM state + MAX vectors + retained piggyback logs to
  the replacement, advance the config version (the buffer holds the
  version boundary), re-steer with ``FTCChain.install`` -- the call
  recovery's re-steer makes -- and release the held packets in order.

Operations: vertical ``rescale`` (now lossless), instance ``migrate``,
whole-server ``evacuate``, middlebox ``insert``/``remove`` (structural:
the whole chain drains, groups re-form), and ``classifier`` update.
Every phase is one ``reconfig/<phase>`` event (timeline, flight ring
and a Chrome instant on the control-plane track), inside the op's
async trace span.

A crash mid-reconfiguration aborts the operation: the hold is flushed
(by the abort itself, or by recovery's re-steer via
``FTCChain.note_route_change`` when the crash took the position down),
frozen state thaws, and the journal shows an uncovered
``reconfig-prepare`` that the (possibly new) leader re-runs from
scratch -- every operation here is idempotent to re-execution because
the prepare phase spawns fresh resources each time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..net.retry import call_with_deadline
from .fencing import StaleConfigError
from .replica import Replica

__all__ = ["ReconfigError", "ReconfigOp", "ReconfigReport", "ReconfigHold",
           "ClassifierRule", "ClassifierSet",
           "apply_reconfig", "RECONFIG_KINDS", "RECONFIG_PHASES"]

#: Operation kinds (each is one two-phase apply).
RECONFIG_KINDS = ("rescale", "migrate", "evacuate", "insert", "remove",
                  "classifier")

#: Phases, in firing order; "aborted" replaces "committed" on failure.
RECONFIG_PHASES = ("preparing", "prepared", "draining", "quiesced",
                   "switching", "committed", "aborted")

#: Spacing of quiesce polls -- two consecutive quiet samples this far
#: apart prove nothing was in flight toward the position at the first
#: (the gap exceeds a hop's propagation + NIC admission time).
DRAIN_POLL_S = 20e-6

#: Give up draining a single position after this long.
DRAIN_TIMEOUT_S = 20e-3

#: Whole-chain drains (structural ops) wait through feedback/commit
#: dissemination rounds, so they get a much larger budget.
CHAIN_DRAIN_TIMEOUT_S = 80e-3

#: Floor on the state-transfer RPC deadline (scaled up for big states).
TRANSFER_TIMEOUT_S = 8e-3

#: Backstop: a hold orphaned by a crash force-flushes after this long
#: even if no recovery re-steer ever lands on the position.
HOLD_FLUSH_DEADLINE_S = 50e-3


class ReconfigError(Exception):
    """A reconfiguration could not complete and was aborted."""


# -- flow classification ------------------------------------------------------

@dataclass(frozen=True)
class ClassifierRule:
    """One wildcardable 5-tuple match; ``None`` fields match anything."""

    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    proto: Optional[int] = None
    action: str = "allow"

    def __post_init__(self):
        if self.action not in ("allow", "deny"):
            raise ValueError(f"unknown classifier action {self.action!r}")

    def matches(self, flow) -> bool:
        for name in ("src_ip", "dst_ip", "src_port", "dst_port", "proto"):
            want = getattr(self, name)
            if want is not None and getattr(flow, name) != want:
                return False
        return True


@dataclass(frozen=True)
class ClassifierSet:
    """A versioned, ordered rule set; first match wins."""

    version: int
    rules: Tuple[ClassifierRule, ...] = ()
    default: str = "allow"

    def __post_init__(self):
        if self.version < 1:
            raise ValueError("classifier versions start at 1")
        if self.default not in ("allow", "deny"):
            raise ValueError(f"unknown default action {self.default!r}")
        object.__setattr__(self, "rules", tuple(self.rules))

    def admits(self, flow) -> bool:
        for rule in self.rules:
            if rule.matches(flow):
                return rule.action == "allow"
        return self.default == "allow"


# -- operations ---------------------------------------------------------------

@dataclass(frozen=True)
class ReconfigOp:
    """One requested reconfiguration (immutable, journal-describable)."""

    kind: str
    position: Optional[int] = None
    n_threads: Optional[int] = None
    index: Optional[int] = None
    middlebox: Optional[Any] = None
    middlebox_name: Optional[str] = None
    classifier: Optional[ClassifierSet] = None

    def __post_init__(self):
        if self.kind not in RECONFIG_KINDS:
            raise ValueError(f"unknown reconfiguration kind {self.kind!r}")
        if self.kind == "rescale" and (
                self.position is None or self.n_threads is None
                or self.n_threads < 1):
            raise ValueError("rescale needs a position and >= 1 thread")
        if self.kind in ("migrate", "evacuate") and self.position is None:
            raise ValueError(f"{self.kind} needs a position")
        if self.kind == "insert" and (self.index is None
                                      or self.middlebox is None):
            raise ValueError("insert needs an index and a middlebox")
        if self.kind == "remove" and self.middlebox_name is None:
            raise ValueError("remove needs a middlebox name")
        if self.kind == "classifier" and self.classifier is None:
            raise ValueError("classifier update needs a ClassifierSet")

    def journal_positions(self) -> Tuple[int, ...]:
        if self.kind in ("rescale", "migrate", "evacuate"):
            return (self.position,)
        if self.kind == "insert":
            return (self.index,)
        return ()

    def describe(self) -> str:
        parts = [f"op={self.kind}"]
        if self.position is not None:
            parts.append(f"position={self.position}")
        if self.n_threads is not None:
            parts.append(f"threads={self.n_threads}")
        if self.index is not None:
            parts.append(f"index={self.index}")
        if self.middlebox is not None:
            parts.append(f"mbox={self.middlebox.name}")
        if self.middlebox_name is not None:
            parts.append(f"mbox={self.middlebox_name}")
        if self.classifier is not None:
            parts.append(f"classifier_v={self.classifier.version}")
        return " ".join(parts)

    @staticmethod
    def parse(detail: str) -> Optional["ReconfigOp"]:
        """Rebuild an op from its journaled ``describe()`` string.

        ``insert`` and ``classifier`` carry live objects a journal
        cannot reconstruct; they parse to ``None`` and the resuming
        leader closes them with a ``reconfig-abort`` instead.
        """
        fields = dict(part.split("=", 1)
                      for part in detail.split() if "=" in part)
        kind = fields.get("op")
        try:
            if kind == "rescale":
                return ReconfigOp(kind="rescale",
                                  position=int(fields["position"]),
                                  n_threads=int(fields["threads"]))
            if kind in ("migrate", "evacuate"):
                return ReconfigOp(kind=kind, position=int(fields["position"]))
            if kind == "remove":
                return ReconfigOp(kind="remove",
                                  middlebox_name=fields["mbox"])
        except (KeyError, ValueError):
            return None
        return None


@dataclass
class ReconfigReport:
    """Timing + accounting of one reconfiguration."""

    op: ReconfigOp
    committed: bool = False
    aborted: bool = False
    resumed: bool = False
    prepare_s: float = 0.0
    drain_s: float = 0.0
    transfer_s: float = 0.0
    switch_s: float = 0.0
    total_s: float = 0.0
    bytes_transferred: int = 0
    held_packets: int = 0
    detail: str = ""


# -- the quiesce hold ---------------------------------------------------------

class ReconfigHold:
    """FIFO parking for packets bound to a position mid-switch.

    While active, :meth:`FTCChain.send_to_position` (and ``ingress``
    for position 0) parks packets here instead of putting them on the
    wire.  ``begin_release`` pumps them back out in arrival order at
    NIC line rate; packets arriving mid-release park at the tail, so
    FIFO order is preserved end to end -- the hold degenerates to a
    pass-through queue under sustained overload rather than dropping.
    A later operation on the same position may :meth:`suspend` a hold
    that is still draining and adopt its queue, keeping order across
    back-to-back reconfigurations.
    """

    def __init__(self, chain, position: int):
        self.chain = chain
        self.position = position
        self.sim = chain.sim
        self.parked = deque()
        self.active = True
        self.releasing = False
        self.peak = 0
        self._suspended = False
        self.sim.schedule_callback(HOLD_FLUSH_DEADLINE_S, self._deadline)

    def park(self, packet) -> None:
        self.parked.append(packet)
        if len(self.parked) > self.peak:
            self.peak = len(self.parked)

    def suspend(self) -> None:
        """Re-arm an actively draining hold for a new operation."""
        self._suspended = True

    def begin_release(self) -> None:
        self._suspended = False
        if not self.active or self.releasing:
            return
        self.releasing = True
        self.sim.process(self._release(),
                         name=f"reconfig-hold{self.position}")

    def _release(self):
        pace = 1.0 / self.chain.costs.nic_pps
        while self.parked:
            if self._suspended:
                self.releasing = False
                return
            packet = self.parked.popleft()
            self.chain._forward_released(self.position, packet)
            yield self.sim.timeout(pace)
        self.active = False
        self.releasing = False
        if self.chain._holds.get(self.position) is self:
            del self.chain._holds[self.position]

    def _deadline(self) -> None:
        if self.active and not self.releasing and not self._suspended:
            self.chain.reconfig_counts["forced_releases"] += 1
            self.begin_release()


def _install_hold(chain, position: int) -> ReconfigHold:
    existing = chain._holds.get(position)
    if existing is not None and existing.active:
        existing.suspend()
        return existing
    hold = ReconfigHold(chain, position)
    chain._holds[position] = hold
    return hold


# -- quiesce-point detection --------------------------------------------------

def _position_quiet(chain, position: int) -> bool:
    """True when nothing is in flight at/into one position."""
    server = chain.server_at(position)
    if server.failed:
        raise ReconfigError(
            f"{chain.route[position]} failed while draining")
    nic = server.nic
    if nic.engine_backlog > 0.0 or nic.depth() > 0:
        return False
    if chain.replica_at(position).busy:
        return False
    if chain.reliable_links:
        for (src, dst), channel in chain._channels.items():
            if position in (src, dst) and (channel.unacked or channel.txq):
                return False
    return True


def _chain_quiet(chain) -> bool:
    """True when the whole pipeline (incl. replication) is at rest."""
    for position in range(chain.n_positions):
        if not _position_quiet(chain, position):
            return False
    if chain.buffer.held or chain.buffer.feedback_logs:
        return False
    if chain.forwarder.has_pending:
        return False
    for replica in chain.replicas:
        for state in replica.states.values():
            if state.pending:
                return False
    return True


def _drain(chain, quiet: Callable[[Any], bool], timeout_s: float,
           poll_s: float = DRAIN_POLL_S):
    """Generator: wait for two consecutive quiet samples ``poll_s`` apart."""
    sim = chain.sim
    deadline = sim.now + timeout_s
    streak = 0
    while True:
        streak = streak + 1 if quiet(chain) else 0
        if streak >= 2:
            return
        if sim.now >= deadline:
            raise ReconfigError(
                f"drain timed out after {timeout_s * 1e3:.1f}ms")
        yield sim.timeout(poll_s)


def _fetch_state(chain, report: ReconfigReport, state, mbox_name: str,
                 src_name: str, dst_names: Sequence[str]):
    """Generator: one middlebox's state to each destination.

    Each transfer is a control RPC with a deadline (scaled up for big
    states); one that times out aborts the operation.  Returns the
    exports in ``dst_names`` order.
    """
    size = state.export_bytes(chain.costs)
    response_bytes = max(size, 64)
    timeout_s = max(TRANSFER_TIMEOUT_S,
                    3.0 * response_bytes * 8.0 / chain.costs.bandwidth_bps)
    exports = []
    for dst_name in dst_names:
        ok, export = yield from call_with_deadline(
            chain.net, dst_name, src_name, state.export_state, timeout_s,
            response_bytes=response_bytes)
        if not ok:
            raise ReconfigError(
                f"state transfer of {mbox_name} from {src_name} timed out")
        exports.append(export)
        report.bytes_transferred += size
    return exports


# -- the two-phase driver -----------------------------------------------------

def apply_reconfig(chain, op: ReconfigOp, epoch: Optional[int] = None,
                   journal=None, hooks: Sequence[Callable] = (),
                   reroute_delay_s: float = 0.5e-3, resumed: bool = False):
    """Generator (run as a sim process): perform one reconfiguration.

    Returns a :class:`ReconfigReport`.  ``journal`` is a command-guard
    generator ``(step, positions, detail)`` (the orchestrator's
    write-ahead, epoch-fenced command path) or ``None`` for
    unreplicated runs; ``hooks`` receive ``(phase, positions)`` -- the
    orchestrator wires its chaos/timeline hooks through here.  Raises
    :class:`ReconfigError` on an abort, :class:`~.fencing.StaleEpochError`
    when fenced, and lets ``Interrupt`` unwind (abort cleanup runs in
    the ``finally`` block).  Every kind runs this one sequence; its
    plan (:class:`_Replace`, :class:`_Restructure`, :class:`_Classifier`)
    supplies only what differs.
    """
    sim, telemetry = chain.sim, chain.telemetry
    counts = chain.reconfig_counts
    if not counts:   # the chain's first operation: reconfig/* appear
        for name in ("prepares", "switches", "aborted", "held_packets",
                     "migrated_bytes", "forced_releases"):
            counts[name] = 0
            telemetry.registry.counter(f"reconfig/{name}",
                                       partial(counts.get, name))
    chain._reconfig_seq += 1
    op_id = chain._reconfig_seq
    positions, describe = op.journal_positions(), op.describe()
    hooks = tuple(hooks or ())
    journal = journal or (lambda *command: iter(()))  # unreplicated: no-op

    def command(step: str):
        return journal(step, list(positions), describe)

    def fire(phase: str) -> None:
        telemetry.emit("reconfig", phase, positions, t=sim.now,
                       detail=describe, op_id=op_id, op_kind=op.kind)
        for hook in hooks:
            hook(phase, positions)

    report = ReconfigReport(op=op, resumed=resumed)
    started = sim.now
    plan = _PLANS[op.kind](chain, op, resumed)
    if plan.applied:
        # Already applied by the previous leader: close the journal
        # entry and report success idempotently.
        yield from command("reconfig-commit")
        report.committed = True
        report.detail = "already applied"
        return report
    fire("preparing")
    yield from command("reconfig-prepare")
    plan.spawn()
    counts["prepares"] += 1
    report.prepare_s = sim.now - started
    fire("prepared")

    hold = None
    if plan.hold_at is not None:
        hold = _install_hold(chain, plan.hold_at)
    committed = False
    try:
        if hold is not None:
            fire("draining")
            drain_started = sim.now
            yield from _drain(chain, plan.quiet, plan.drain_timeout_s)
            report.drain_s = sim.now - drain_started
            fire("quiesced")
            transfer_started = sim.now
            yield from plan.transfer(report)
            if plan.timed_transfer:
                report.transfer_s = sim.now - transfer_started
            counts["migrated_bytes"] += report.bytes_transferred

        yield sim.timeout(reroute_delay_s)
        switch_started = sim.now
        fire("switching")
        yield from command("reconfig-switch")
        if chain.gate is not None:
            chain.gate.apply(epoch, "reconfig-switch", positions,
                             detail=plan.fence_detail)
        plan.switch(hold)  # synchronous: no yields until the chain is whole
        committed = report.committed = True
        if hold is not None:
            report.held_packets = hold.peak
            counts["held_packets"] += hold.peak
        yield from command("reconfig-commit")
        report.switch_s = sim.now - switch_started
        counts["switches"] += 1
        fire("committed")
    finally:
        for state in plan.frozen:
            state.thaw()
        plan.close(committed, hold)
        if not committed:
            report.aborted = True
            counts["aborted"] += 1
            fire("aborted")
    report.total_s = sim.now - started
    report.detail = plan.detail
    return report


class _Plan:
    """What one operation kind changes; :func:`apply_reconfig` drives it.

    Constructors validate before anything is journaled.  Kinds that
    move state park traffic at ``hold_at`` and supply ``quiet``,
    ``drain_timeout_s`` and ``transfer``; ``close`` runs on every exit
    and undoes an aborted operation.
    """

    applied = False
    hold_at: Optional[int] = None
    timed_transfer = False

    def __init__(self, chain, op: ReconfigOp):
        self.chain = chain
        self.op = op
        #: States frozen for the transfer; thawed on every exit.
        self.frozen: List = []

    def spawn(self) -> None:
        pass

    def close(self, committed: bool, hold) -> None:
        pass


class _Replace(_Plan):
    """rescale / migrate / evacuate: a warm instance takes one position."""

    timed_transfer = True
    drain_timeout_s = DRAIN_TIMEOUT_S

    def __init__(self, chain, op: ReconfigOp, resumed: bool):
        if not 0 <= op.position < chain.n_positions:
            raise ReconfigError(f"no such position {op.position}")
        super().__init__(chain, op)
        self.position = self.hold_at = position = op.position
        self.quiet = lambda c: _position_quiet(c, position)
        self.old_stopped = False

    def spawn(self) -> None:
        chain, position = self.chain, self.position
        self.old_replica = chain.replica_at(position)
        self.old_server = self.old_replica.server
        self.n_threads = (self.op.n_threads if self.op.n_threads is not None
                          else len(self.old_server.nic.queues))
        self.new_server = chain._new_server(position, self.n_threads)
        self.new_replica = Replica(chain, position, self.new_server)
        move = f"{self.old_server.name} with {self.new_server.name}"
        self.fence_detail = f"replace {move}"
        self.detail = f"replaced {move}"

    def transfer(self, report: ReconfigReport):
        chain, position, old = self.chain, self.position, self.old_replica
        old.stop()
        self.old_stopped = True
        chain._switching.add(position)
        for state in old.states.values():
            state.freeze()
            self.frozen.append(state)
        for mbox_name, state in old.states.items():
            [exported] = yield from _fetch_state(
                chain, report, state, mbox_name,
                self.old_server.name, [self.new_server.name])
            self.new_replica.install_state(mbox_name, exported)

    def switch(self, hold) -> None:
        chain, position = self.chain, self.position
        version = chain.config_version + 1
        chain.buffer.hold_boundary(version)
        chain.apply_config(version)
        middlebox = self.new_replica.middlebox  # None at a §5.1 extension
        if middlebox is not None and \
                self.n_threads != len(self.old_server.nic.queues):
            middlebox.rescale(self.n_threads)
        old_name = chain.install(position, self.new_replica)
        self.old_server.fail()
        chain.buffer.release_boundary()
        chain.note_route_change(position, old_name, self.new_server.name)

    def close(self, committed: bool, hold) -> None:
        self.chain._switching.discard(self.position)
        if committed:
            return
        self.new_server.fail()
        if self.old_stopped and not self.old_server.failed:
            self.old_replica.start()
        if not self.old_server.failed:
            hold.begin_release()
        # else: recovery's re-steer flushes the hold through
        # note_route_change (or the deadline backstop does).


class _Restructure(_Plan):
    """insert / remove: drain the whole chain, re-form every group.

    Group membership is a function of chain geometry, so a structural
    change moves every group; the switch rebuilds all replicas against
    the new layout from per-target state snapshots gathered (over
    bounded control RPCs) at the quiesce point, then releases ingress.
    The gather is reported in bytes only (``transfer_s`` stays 0).
    """

    hold_at = 0
    drain_timeout_s = CHAIN_DRAIN_TIMEOUT_S
    quiet = staticmethod(_chain_quiet)

    def __init__(self, chain, op: ReconfigOp, resumed: bool):
        super().__init__(chain, op)
        names = [m.name for m in chain.middleboxes]
        self.inserted = self.new_server = None
        if op.kind == "insert":
            self.applied = op.middlebox.name in names
            if self.applied and not resumed:
                raise ReconfigError(
                    f"middlebox {op.middlebox.name!r} already in the chain")
            if not self.applied and not 0 <= op.index <= chain.n_mboxes:
                raise ReconfigError(f"insert index {op.index} out of range")
            self.inserted = op.middlebox
            self.new_mboxes = (chain.middleboxes[:op.index] + [op.middlebox]
                               + chain.middleboxes[op.index:])
        else:
            self.applied = op.middlebox_name not in names
            if self.applied and not resumed:
                raise ReconfigError(
                    f"no middlebox {op.middlebox_name!r} in the chain")
            if not self.applied and chain.n_mboxes < 2:
                raise ReconfigError("cannot remove the only middlebox")
            self.new_mboxes = [m for m in chain.middleboxes
                               if m.name != op.middlebox_name]

    def spawn(self) -> None:
        if self.inserted is not None:
            self.new_server = self.chain._new_server(self.op.index)

    def transfer(self, report: ReconfigReport):
        chain, new_mboxes, inserted = self.chain, self.new_mboxes, self.inserted
        n_mboxes = len(new_mboxes)
        n_pos = max(n_mboxes, chain.f + 1)
        # Plan the new route: kept middleboxes keep their servers, the
        # inserted one takes the warm spare, leftovers (the removed
        # middlebox's server, surplus extensions) back the extension
        # positions in old-route order; any shortfall spawns fresh.
        old_route = list(chain.route)
        kept: List[str] = []
        used_old = set()
        for mbox in new_mboxes:
            if inserted is not None and mbox is inserted:
                kept.append(self.new_server.name)
            else:
                old_index = chain.mbox_index(mbox.name)
                kept.append(old_route[old_index])
                used_old.add(old_index)
        leftover = [old_route[p] for p in range(chain.n_positions)
                    if p not in used_old]
        extensions: List[str] = []
        for k in range(n_pos - n_mboxes):
            if leftover:
                extensions.append(leftover.pop(0))
            else:
                extensions.append(chain._new_server(n_mboxes + k).name)
        self.retired = list(leftover)
        self.old_route, self.new_route = old_route, kept + extensions
        self.fence_detail = f"{self.op.kind} -> route {self.new_route}"
        self.detail = f"{self.op.kind}: route {old_route} -> {self.new_route}"

        # Gather one state snapshot per (new position, middlebox) pair
        # over bounded control RPCs *before* mutating anything, from
        # each kept middlebox's current head.  Fresh RPC per target:
        # no two replicas may alias one snapshot's containers.
        source_states = {}
        for mbox in new_mboxes:
            if mbox is inserted:
                continue
            head = chain.mbox_index(mbox.name)
            source_states[mbox.name] = (
                chain.replica_at(head).states[mbox.name], old_route[head])
        for state, _ in source_states.values():
            state.freeze()
            self.frozen.append(state)
        self.exports: Dict[Tuple[int, str], tuple] = {}
        for new_index, mbox in enumerate(new_mboxes):
            if mbox is inserted:
                continue
            state, src_name = source_states[mbox.name]
            targets = [(new_index + k) % n_pos for k in range(chain.f + 1)]
            exported = yield from _fetch_state(
                chain, report, state, mbox.name, src_name,
                [self.new_route[target] for target in targets])
            for target, snapshot in zip(targets, exported):
                self.exports[(target, mbox.name)] = snapshot

    def switch(self, hold) -> None:
        chain, op, new_route = self.chain, self.op, self.new_route
        n_mboxes, n_pos = len(self.new_mboxes), len(new_route)
        for replica in chain.replicas:
            replica.stop()
        chain.retire_channels()
        if op.kind == "remove":
            name = op.middlebox_name
            chain.forwarder.pending_logs = [
                log for log in chain.forwarder.pending_logs
                if log.mbox != name]
            chain.forwarder.pending_commits.pop(name, None)
            chain.forwarder._dirty_commits.pop(name, None)
            chain.buffer.commit_floor.pop(name, None)
            chain.buffer._commit_sent.pop(name, None)
            chain.buffer.feedback_logs = [
                log for log in chain.buffer.feedback_logs
                if log.mbox != name]
            chain.mbox_release_baseline.pop(name, None)
        version = chain.config_version + 1
        chain.buffer.hold_boundary(version)
        chain.apply_config(version)
        chain.middleboxes = list(self.new_mboxes)
        chain.n_mboxes = n_mboxes
        chain.n_positions = n_pos
        chain.route = list(new_route)
        chain.replicas = [Replica(chain, p, chain.server_at(p))
                          for p in range(n_pos)]
        for p in range(n_pos - 1):
            chain.net.connect(new_route[p], new_route[p + 1])
        for p, replica in enumerate(chain.replicas):
            for mbox_name in replica.states:
                exported = self.exports.get((p, mbox_name))
                if exported is not None:  # the inserted middlebox: empty
                    replica.install_state(mbox_name, exported)
        if self.inserted is not None:
            # Egress released packets before the insert never traversed
            # the new middlebox; auditors account from this floor.
            chain.mbox_release_baseline[self.inserted.name] = (
                chain.buffer.released)
        for replica in chain.replicas:
            replica.start()
        for name in self.retired:
            chain.net.servers[name].fail()
        chain.buffer.release_boundary()
        for p in range(n_pos):
            old_name = (self.old_route[p] if p < len(self.old_route)
                        else "(none)")
            if old_name != new_route[p]:
                chain.note_route_change(p, old_name, new_route[p])
        hold.begin_release()

    def close(self, committed: bool, hold) -> None:
        if not committed:
            if self.new_server is not None:
                self.new_server.fail()
            hold.begin_release()


class _Classifier(_Plan):
    """Atomically install a new classifier version at ingress.

    No hold, drain or transfer: the reroute delay is the rule-install
    latency on the (modelled) switches.
    """

    def __init__(self, chain, op: ReconfigOp, resumed: bool):
        current = 0 if chain.classifier is None else chain.classifier.version
        if op.classifier.version <= current:
            raise StaleConfigError(
                f"classifier version {op.classifier.version} does not "
                f"advance {current}")
        super().__init__(chain, op)
        self.fence_detail = self.detail = f"classifier v{op.classifier.version}"

    def switch(self, hold) -> None:
        self.chain.apply_config(self.chain.config_version + 1)
        self.chain.classifier = self.op.classifier


_PLANS = {"rescale": _Replace, "migrate": _Replace, "evacuate": _Replace,
          "insert": _Restructure, "remove": _Restructure,
          "classifier": _Classifier}
