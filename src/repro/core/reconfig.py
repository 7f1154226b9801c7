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
  the replacement, re-steer the route, reset the hop
  :class:`~repro.net.channel.ReliableChannel`\\ s so they re-bind to the
  new endpoint, advance the config version (the buffer holds the
  version boundary), and release the held packets in order.

Operations: vertical ``rescale`` (now lossless), instance ``migrate``,
whole-server ``evacuate``, middlebox ``insert``/``remove`` (structural:
the whole chain drains, groups re-form), and ``classifier`` update.
Every phase emits flight-recorder events, recovery-timeline phases
(``reconfig-*``) and Chrome trace spans on the control-plane track.

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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import AnyOf
from .fencing import StaleConfigError
from .replica import Replica

__all__ = ["ReconfigError", "ReconfigOp", "ReconfigReport", "ReconfigHold",
           "ClassifierRule", "ClassifierSet", "ChainConfig",
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


@dataclass(frozen=True)
class ChainConfig:
    """An immutable snapshot of one chain configuration version."""

    version: int
    route: Tuple[str, ...]
    middleboxes: Tuple[str, ...]
    classifier_version: int
    groups: Tuple[Tuple[str, Tuple[int, ...]], ...]


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

    def __init__(self, chain, position: int, forced_counter=None):
        self.chain = chain
        self.position = position
        self.sim = chain.sim
        self.parked = deque()
        self.active = True
        self.releasing = False
        self.peak = 0
        self._suspended = False
        self._forced = forced_counter
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
            if self._forced is not None:
                self._forced.inc()
            self.begin_release()


def _install_hold(chain, position: int, forced_counter=None) -> ReconfigHold:
    existing = chain._holds.get(position)
    if existing is not None and existing.active:
        existing.suspend()
        return existing
    hold = ReconfigHold(chain, position, forced_counter=forced_counter)
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


def _bounded_call(chain, src_name: str, dst_name: str, handler,
                  response_bytes: int):
    """Control RPC with a deadline; returns None on timeout/failure."""
    timeout_s = max(TRANSFER_TIMEOUT_S,
                    3.0 * response_bytes * 8.0 / chain.costs.bandwidth_bps)
    call = chain.net.control_call(src_name, dst_name, handler,
                                  response_bytes=response_bytes)
    deadline = chain.sim.timeout(timeout_s)
    yield AnyOf(chain.sim, [call, deadline])
    if call.processed and call.ok:
        deadline.cancel()
        return call.value
    call.cancel()
    return None


# -- shared op context --------------------------------------------------------

class _Ctx:
    """Telemetry/journal/fence plumbing shared by every operation."""

    def __init__(self, chain, op: ReconfigOp, epoch, journal, hooks):
        self.chain = chain
        self.op = op
        self.epoch = epoch
        self.journal = journal
        self.hooks = tuple(hooks or ())
        self.telemetry = chain.telemetry
        registry = self.telemetry.registry
        self.m_prepares = registry.counter("reconfig/prepares")
        self.m_switches = registry.counter("reconfig/switches")
        self.m_aborted = registry.counter("reconfig/aborted")
        self.m_held = registry.counter("reconfig/held_packets")
        self.m_migrated = registry.counter("reconfig/migrated_bytes")
        self.m_forced = registry.counter("reconfig/forced_releases")
        chain._reconfig_seq += 1
        self.op_id = chain._reconfig_seq
        self.positions = op.journal_positions()

    def fire(self, phase: str) -> None:
        now = self.chain.sim.now
        telemetry = self.telemetry
        telemetry.timeline.record(f"reconfig-{phase}", self.positions,
                                  detail=self.op.describe(), t=now)
        if telemetry.enabled:
            telemetry.tracer.instant(
                self.op_id, f"reconfig-{phase}", "ctrl", now, tid=9998,
                op=self.op.describe())
        if telemetry.flight.enabled:
            telemetry.flight.record(
                "reconfig", phase, t=now, detail=self.op.describe(),
                chain="ctrl")
        for hook in self.hooks:
            hook(phase, self.positions)

    def span(self, open_: bool, outcome: str = "") -> None:
        if not self.telemetry.enabled:
            return
        tracer = self.telemetry.tracer
        name = f"reconfig:{self.op.kind}"
        if open_:
            tracer.begin_async(self.op_id, name, "ctrl", self.chain.sim.now,
                               tid=9998, op=self.op.describe())
        else:
            tracer.end_async(self.op_id, name, "ctrl", self.chain.sim.now,
                             tid=9998, outcome=outcome)

    def journal_step(self, step: str):
        """Generator: write-ahead journal one step (no-op unjournaled)."""
        if self.journal is not None:
            yield from self.journal(step, list(self.positions),
                                    self.op.describe())

    def fence(self, detail: str) -> None:
        if self.chain.gate is not None:
            self.chain.gate.apply(self.epoch, "reconfig-switch",
                                  self.positions, detail=detail)


# -- the dispatcher -----------------------------------------------------------

def apply_reconfig(chain, op: ReconfigOp, epoch: Optional[int] = None,
                   journal=None, hooks: Sequence[Callable] = (),
                   reroute_delay_s: float = 0.5e-3, resumed: bool = False):
    """Generator (run as a sim process): perform one reconfiguration.

    Returns a :class:`ReconfigReport`.  ``journal`` is a command-guard
    generator ``(step, positions, detail)`` (the ensemble's write-ahead
    quorum path) or ``None`` for unreplicated runs; ``hooks`` receive
    ``(phase, positions)`` -- the orchestrator wires its chaos/timeline
    hooks through here.  Raises :class:`ReconfigError` on an abort,
    :class:`~.fencing.StaleEpochError` when fenced, and lets
    ``Interrupt`` unwind (abort cleanup runs in ``finally`` blocks).
    """
    ctx = _Ctx(chain, op, epoch, journal, hooks)
    report = ReconfigReport(op=op, resumed=resumed)
    if op.kind in ("rescale", "migrate", "evacuate"):
        result = yield from _replace_instance(ctx, report, reroute_delay_s)
    elif op.kind in ("insert", "remove"):
        result = yield from _restructure(ctx, report, reroute_delay_s)
    else:
        result = yield from _swap_classifier(ctx, report, reroute_delay_s)
    return result


# -- rescale / migrate / evacuate ---------------------------------------------

def _replace_instance(ctx: _Ctx, report: ReconfigReport,
                      reroute_delay_s: float):
    """Replace one position's server with a warm instance, losslessly."""
    chain, op = ctx.chain, ctx.op
    sim = chain.sim
    position = op.position
    if not 0 <= position < chain.n_positions:
        raise ReconfigError(f"no such position {position}")
    started = sim.now
    ctx.span(True)
    ctx.fire("preparing")
    yield from ctx.journal_step("reconfig-prepare")

    old_replica = chain.replica_at(position)
    old_server = old_replica.server
    old_name = chain.route[position]
    n_threads = (op.n_threads if op.n_threads is not None
                 else len(old_server.nic.queues))
    saved_threads = chain.n_threads
    chain.n_threads = n_threads
    try:
        new_server = chain._new_server(position)
    finally:
        chain.n_threads = saved_threads
    new_replica = Replica(sim, chain, position, new_server,
                          old_replica.middlebox, costs=chain.costs,
                          streams=chain.streams, use_htm=chain.use_htm)
    ctx.m_prepares.inc()
    report.prepare_s = sim.now - started
    ctx.fire("prepared")

    hold = _install_hold(chain, position, forced_counter=ctx.m_forced)
    committed = False
    old_stopped = False
    frozen = []
    try:
        ctx.fire("draining")
        drain_started = sim.now
        yield from _drain(chain, lambda c: _position_quiet(c, position),
                          DRAIN_TIMEOUT_S)
        report.drain_s = sim.now - drain_started
        ctx.fire("quiesced")

        old_replica.stop()
        old_stopped = True
        chain._switching.add(position)
        for state in old_replica.states.values():
            state.freeze()
            frozen.append(state)
        transfer_started = sim.now
        for mbox_index, mbox_name in chain.member_mboxes(position):
            state = old_replica.states[mbox_name]
            size = (state.store.state_bytes() +
                    sum(log.byte_size(chain.costs) for log in state.retained))
            exported = yield from _bounded_call(
                chain, new_server.name, old_name, state.export_state,
                response_bytes=max(size, 64))
            if exported is None:
                raise ReconfigError(
                    f"state transfer of {mbox_name} from {old_name} "
                    "timed out")
            contents, max_vector, retained = exported
            new_replica.states[mbox_name].import_state(
                contents, max_vector, retained)
            if new_replica.runtime is not None and mbox_index == position:
                new_replica.runtime.depvec.load(max_vector)
            report.bytes_transferred += size
        report.transfer_s = sim.now - transfer_started
        ctx.m_migrated.inc(report.bytes_transferred)

        yield sim.timeout(reroute_delay_s)
        switch_started = sim.now
        ctx.fire("switching")
        yield from ctx.journal_step("reconfig-switch")
        ctx.fence(f"replace {old_name} with {new_server.name}")
        version = chain.config_version + 1
        chain.buffer.hold_boundary(version)
        chain.apply_config(version)
        chain.route[position] = new_server.name
        chain.replicas[position] = new_replica
        chain.invalidate_channels(position)
        if position > 0:
            chain.net.connect(chain.route[position - 1],
                              chain.route[position])
        if position < chain.n_positions - 1:
            chain.net.connect(chain.route[position],
                              chain.route[position + 1])
        if n_threads != len(old_server.nic.queues):
            new_replica.middlebox.rescale(n_threads)
        new_replica.start()
        committed = True
        report.committed = True
        old_server.fail()
        chain.buffer.release_boundary()
        chain.note_route_change(position, old_name, new_server.name)
        report.held_packets = hold.peak
        ctx.m_held.inc(hold.peak)
        yield from ctx.journal_step("reconfig-commit")
        report.switch_s = sim.now - switch_started
        ctx.m_switches.inc()
        ctx.fire("committed")
        ctx.span(False, "committed")
    finally:
        chain._switching.discard(position)
        for state in frozen:
            state.thaw()
        if not committed:
            report.aborted = True
            ctx.m_aborted.inc()
            new_server.fail()
            if old_stopped and not old_server.failed:
                old_replica.start()
            if not old_server.failed:
                hold.begin_release()
            # else: recovery's re-steer flushes the hold through
            # note_route_change (or the deadline backstop does).
            ctx.fire("aborted")
            ctx.span(False, "aborted")
    report.total_s = sim.now - started
    report.detail = f"replaced {old_name} with {new_server.name}"
    return report


# -- insert / remove ----------------------------------------------------------

def _planned_groups(n_mboxes: int, n_positions: int, f: int,
                    mbox_index: int) -> List[int]:
    return [(mbox_index + k) % n_positions for k in range(f + 1)]


def _restructure(ctx: _Ctx, report: ReconfigReport, reroute_delay_s: float):
    """Insert or remove a middlebox: drain the whole chain, re-form groups.

    Group membership is a function of chain geometry, so a structural
    change moves every group; the switch rebuilds all replicas against
    the new layout from per-target state snapshots gathered (over
    bounded control RPCs) at the quiesce point, then releases ingress.
    """
    chain, op = ctx.chain, ctx.op
    sim = chain.sim
    started = sim.now

    if op.kind == "insert":
        names = [m.name for m in chain.middleboxes]
        if op.middlebox.name in names:
            if report.resumed:
                # Already applied by the previous leader: close the
                # journal entry and report success idempotently.
                yield from ctx.journal_step("reconfig-commit")
                report.committed = True
                report.detail = "already applied"
                return report
            raise ReconfigError(
                f"middlebox {op.middlebox.name!r} already in the chain")
        if not 0 <= op.index <= chain.n_mboxes:
            raise ReconfigError(f"insert index {op.index} out of range")
        new_mboxes = (chain.middleboxes[:op.index] + [op.middlebox]
                      + chain.middleboxes[op.index:])
        inserted = op.middlebox
    else:
        if op.middlebox_name not in [m.name for m in chain.middleboxes]:
            if report.resumed:
                yield from ctx.journal_step("reconfig-commit")
                report.committed = True
                report.detail = "already applied"
                return report
            raise ReconfigError(
                f"no middlebox {op.middlebox_name!r} in the chain")
        if chain.n_mboxes < 2:
            raise ReconfigError("cannot remove the only middlebox")
        new_mboxes = [m for m in chain.middleboxes
                      if m.name != op.middlebox_name]
        inserted = None

    ctx.span(True)
    ctx.fire("preparing")
    yield from ctx.journal_step("reconfig-prepare")

    new_n_mboxes = len(new_mboxes)
    new_n_pos = max(new_n_mboxes, chain.f + 1)
    new_server = None
    if inserted is not None:
        new_server = chain._new_server(op.index)
    ctx.m_prepares.inc()
    report.prepare_s = sim.now - started
    ctx.fire("prepared")

    hold = _install_hold(chain, 0, forced_counter=ctx.m_forced)
    committed = False
    frozen = []
    try:
        ctx.fire("draining")
        drain_started = sim.now
        yield from _drain(chain, _chain_quiet, CHAIN_DRAIN_TIMEOUT_S)
        report.drain_s = sim.now - drain_started
        ctx.fire("quiesced")

        # Plan the new route: kept middleboxes keep their servers, the
        # inserted one takes the warm spare, leftovers (the removed
        # middlebox's server, surplus extensions) back the extension
        # positions in old-route order; any shortfall spawns fresh.
        old_route = list(chain.route)
        kept: List[str] = []
        used_old = set()
        for mbox in new_mboxes:
            if inserted is not None and mbox is inserted:
                kept.append(new_server.name)
            else:
                old_index = chain.mbox_index(mbox.name)
                kept.append(old_route[old_index])
                used_old.add(old_index)
        leftover = [old_route[p] for p in range(chain.n_positions)
                    if p not in used_old]
        extensions: List[str] = []
        for k in range(new_n_pos - new_n_mboxes):
            if leftover:
                extensions.append(leftover.pop(0))
            else:
                extensions.append(chain._new_server(new_n_mboxes + k).name)
        retired = list(leftover)
        new_route = kept + extensions

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
            frozen.append(state)
        exports: Dict[Tuple[int, str], tuple] = {}
        for new_index, mbox in enumerate(new_mboxes):
            if mbox is inserted:
                continue
            state, src_name = source_states[mbox.name]
            size = (state.store.state_bytes() +
                    sum(log.byte_size(chain.costs) for log in state.retained))
            for target in _planned_groups(new_n_mboxes, new_n_pos,
                                          chain.f, new_index):
                exported = yield from _bounded_call(
                    chain, new_route[target], src_name, state.export_state,
                    response_bytes=max(size, 64))
                if exported is None:
                    raise ReconfigError(
                        f"state transfer of {mbox.name} from {src_name} "
                        "timed out")
                exports[(target, mbox.name)] = exported
                report.bytes_transferred += size
        ctx.m_migrated.inc(report.bytes_transferred)

        yield sim.timeout(reroute_delay_s)
        switch_started = sim.now
        ctx.fire("switching")
        yield from ctx.journal_step("reconfig-switch")
        ctx.fence(f"{op.kind} -> route {new_route}")

        # -- the switch proper: synchronous, no yields until whole ----------
        for replica in chain.replicas:
            replica.stop()
        for channel in chain._channels.values():
            channel.stop()
        chain._channels.clear()
        removed = ([op.middlebox_name] if op.kind == "remove" else [])
        for name in removed:
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
        chain.middleboxes = list(new_mboxes)
        chain.n_mboxes = new_n_mboxes
        chain.n_positions = new_n_pos
        chain.route = list(new_route)
        chain.replicas = [
            Replica(sim, chain, p, chain.net.servers[new_route[p]],
                    chain.middleboxes[p] if p < new_n_mboxes else None,
                    costs=chain.costs, streams=chain.streams,
                    use_htm=chain.use_htm)
            for p in range(new_n_pos)]
        for p in range(new_n_pos - 1):
            chain.net.connect(new_route[p], new_route[p + 1])
        for p, replica in enumerate(chain.replicas):
            for mbox_index, mbox_name in chain.member_mboxes(p):
                exported = exports.get((p, mbox_name))
                if exported is None:
                    continue  # the freshly inserted middlebox: empty state
                contents, max_vector, retained = exported
                replica.states[mbox_name].import_state(
                    contents, max_vector, retained)
                if replica.runtime is not None and mbox_index == p:
                    replica.runtime.depvec.load(max_vector)
        if inserted is not None:
            # Egress released packets before the insert never traversed
            # the new middlebox; auditors account from this floor.
            chain.mbox_release_baseline[inserted.name] = chain.buffer.released
        for replica in chain.replicas:
            replica.start()
        committed = True
        report.committed = True
        # -------------------------------------------------------------------

        for name in retired:
            chain.net.servers[name].fail()
        chain.buffer.release_boundary()
        for p in range(new_n_pos):
            old_name = old_route[p] if p < len(old_route) else "(none)"
            if old_name != new_route[p]:
                chain.note_route_change(p, old_name, new_route[p])
        hold.begin_release()
        report.held_packets = hold.peak
        ctx.m_held.inc(hold.peak)
        yield from ctx.journal_step("reconfig-commit")
        report.switch_s = sim.now - switch_started
        ctx.m_switches.inc()
        ctx.fire("committed")
        ctx.span(False, "committed")
    finally:
        for state in frozen:
            state.thaw()
        if not committed:
            report.aborted = True
            ctx.m_aborted.inc()
            if new_server is not None:
                new_server.fail()
            hold.begin_release()
            ctx.fire("aborted")
            ctx.span(False, "aborted")
    report.total_s = sim.now - started
    report.detail = f"{op.kind}: route {old_route} -> {new_route}"
    return report


# -- classifier update --------------------------------------------------------

def _swap_classifier(ctx: _Ctx, report: ReconfigReport,
                     reroute_delay_s: float):
    """Atomically install a new classifier version at ingress."""
    chain, op = ctx.chain, ctx.op
    sim = chain.sim
    started = sim.now
    current = 0 if chain.classifier is None else chain.classifier.version
    if op.classifier.version <= current:
        raise StaleConfigError(
            f"classifier version {op.classifier.version} does not "
            f"advance {current}")
    ctx.span(True)
    ctx.fire("preparing")
    yield from ctx.journal_step("reconfig-prepare")
    ctx.m_prepares.inc()
    report.prepare_s = sim.now - started
    ctx.fire("prepared")
    committed = False
    try:
        # Rule-install latency on the (modelled) switches.
        yield sim.timeout(reroute_delay_s)
        switch_started = sim.now
        ctx.fire("switching")
        yield from ctx.journal_step("reconfig-switch")
        ctx.fence(f"classifier v{op.classifier.version}")
        chain.apply_config(chain.config_version + 1)
        chain.classifier = op.classifier
        committed = True
        report.committed = True
        yield from ctx.journal_step("reconfig-commit")
        report.switch_s = sim.now - switch_started
        ctx.m_switches.inc()
        ctx.fire("committed")
        ctx.span(False, "committed")
    finally:
        if not committed:
            report.aborted = True
            ctx.m_aborted.inc()
            ctx.fire("aborted")
            ctx.span(False, "aborted")
    report.total_s = sim.now - started
    report.detail = f"classifier v{op.classifier.version}"
    return report
