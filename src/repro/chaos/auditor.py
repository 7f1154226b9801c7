"""Invariant auditing against a shadow oracle (§4, §5).

The protocol's correctness rests on a handful of invariants the paper
states informally; the auditor checks them against the live chain at
any instant (and more strictly at quiescence):

1. **Log propagation** (§4.2): within a replication group, each
   member's MAX vector is entry-wise >= its successor's -- state flows
   head -> tail, so a successor can never be ahead of its predecessor.
2. **Release safety** (§5, the buffer's contract): a packet is
   released only after its state updates are replicated f+1 times, so
   every alive group member's store must already account for at least
   the released packets (checked via each Monitor's counters against
   the shadow oracle's release count).
3. **Pruning bound** (§4.3): commit floors never exceed MAX, and no
   retained log sits entirely below the floor (it would have been
   pruned -- keeping it means pruning is broken, dropping others early
   would break retransmission).
4. **Recovery consistency / convergence** (§5.2, quiescent only): with
   traffic stopped and commit vectors drained, all alive members of a
   group hold identical stores and MAX vectors with nothing pending.

The :class:`ShadowOracle` wraps the chain's ``deliver`` callback and
is the ground truth for what left the chain: release count, duplicate
releases (packet ids must be unique), and per-middlebox floors.
Checks skip positions that are mid-recovery or frozen (their state is
legitimately in flux) and a chain that has declared degraded mode
(state loss past f is announced, not hidden).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from ..core.chain import FTCChain
from ..middlebox.monitor import Monitor
from ..net.packet import FlowKey, Packet, PidBitmap

__all__ = ["InvariantViolation", "ShadowOracle", "InvariantAuditor"]


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation of a protocol invariant.

    ``context`` makes the violation self-describing wherever it
    surfaces (CI logs, flight dumps): the seed, virtual time, and chain
    configuration needed to reproduce the run that tripped it.  The
    dataclass stays frozen; the context dict is carried by reference
    and never hashed.
    """

    invariant: str
    detail: str
    at_s: float
    context: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"invariant": self.invariant, "detail": self.detail,
                "at_s": self.at_s, "context": dict(self.context or {})}

    def __str__(self):
        base = f"[{self.at_s * 1e3:.3f}ms] {self.invariant}: {self.detail}"
        if self.context:
            ctx = " ".join(f"{key}={value}"
                           for key, value in sorted(self.context.items()))
            return f"{base} ({ctx})"
        return base


class ShadowOracle:
    """Ground truth observer on the chain egress.

    Install as (or inside) the chain's ``deliver`` callable; it counts
    and uniquifies released packets independently of the protocol
    machinery under test.
    """

    def __init__(self, inner: Optional[Callable[[Packet], None]] = None,
                 track_order: bool = False):
        self.inner = inner
        self.released = 0
        self.duplicate_releases = 0
        #: Every released pid, never evicted: a duplicate is caught
        #: however late it comes.
        self._seen = PidBitmap()
        #: When tracking order (impaired soaks): full egress pid
        #: sequence for bit-identical determinism comparison, plus a
        #: per-flow monotonicity check -- exactly-once delivery must
        #: also be *ordered* within each flow (PROTOCOL.md §8).
        self.track_order = track_order
        self.order = array("q")
        self.out_of_order = 0
        self._flow_last: Dict[FlowKey, int] = {}

    def __call__(self, packet: Packet) -> None:
        self.released += 1
        if self._seen.add(packet.pid):
            self.duplicate_releases += 1
        if self.track_order:
            self.order.append(packet.pid)
            last = self._flow_last.get(packet.flow)
            if last is not None and packet.pid < last:
                self.out_of_order += 1
            self._flow_last[packet.flow] = packet.pid
        if self.inner is not None:
            self.inner(packet)


class InvariantAuditor:
    """Checks the §4/§5 invariants on a live chain."""

    def __init__(self, chain: FTCChain, oracle: Optional[ShadowOracle] = None,
                 orchestrator=None, context: Optional[Dict[str, Any]] = None,
                 brownout=None):
        self.chain = chain
        self.oracle = oracle
        self.orchestrator = orchestrator
        self.brownout = brownout
        #: Run provenance (seed, chain config, schedule index) stamped
        #: onto every violation so a bare assertion message in a CI log
        #: is enough to reproduce the failing run.
        self.context: Dict[str, Any] = dict(context or {})
        self.violations: List[InvariantViolation] = []
        self.audits = 0

    # -- helpers -----------------------------------------------------------------

    def _flag(self, invariant: str, detail: str) -> None:
        context = dict(self.context)
        context.setdefault("chain_length", len(self.chain.middleboxes))
        context.setdefault("f", self.chain.f)
        violation = InvariantViolation(
            invariant=invariant, detail=detail, at_s=self.chain.sim.now,
            context=context)
        self.violations.append(violation)
        flight = self.chain.telemetry.flight
        if flight.enabled:
            flight.record("chaos", "violation", t=self.chain.sim.now,
                          detail=str(violation), chain="ctrl")
            flight.trip(f"invariant:{invariant}",
                        telemetry=self.chain.telemetry, t=self.chain.sim.now)

    def _in_flux(self) -> Set[int]:
        """Positions whose state is legitimately inconsistent right now."""
        flux = set(self.chain.failed_positions())
        if self.orchestrator is not None:
            flux |= self.orchestrator.recovering_positions
            flux |= self.orchestrator.lost_positions
        return flux

    def _stable_members(self, mbox_index: int) -> List[int]:
        flux = self._in_flux()
        members = []
        for position in self.chain.group_positions(mbox_index):
            if position in flux:
                continue
            state = self.chain.replicas[position].states.get(
                self.chain.middleboxes[mbox_index].name)
            if state is None or state.frozen:
                continue
            members.append(position)
        return members

    # -- the invariants --------------------------------------------------------------

    def check_log_propagation(self) -> None:
        """Invariant 1: MAX flows monotonically down each group."""
        for index, mbox in enumerate(self.chain.middleboxes):
            group = self.chain.group_positions(index)
            flux = self._in_flux()
            chain_members = [p for p in group if p not in flux]
            for pred, succ in zip(chain_members, chain_members[1:]):
                pred_state = self.chain.replicas[pred].states[mbox.name]
                succ_state = self.chain.replicas[succ].states[mbox.name]
                if pred_state.frozen or succ_state.frozen:
                    continue
                for partition, seq in succ_state.max.items():
                    if seq > pred_state.max.get(partition, 0):
                        self._flag(
                            "log-propagation",
                            f"{mbox.name}: successor p{succ} ahead of "
                            f"p{pred} on partition {partition} "
                            f"({seq} > {pred_state.max.get(partition, 0)})")

    def check_release_safety(self) -> None:
        """Invariant 2: released packets are replicated f+1 times."""
        if self.oracle is None:
            return
        if self.oracle.duplicate_releases:
            self._flag("release-safety",
                       f"{self.oracle.duplicate_releases} duplicate releases")
        baselines = getattr(self.chain, "mbox_release_baseline", {})
        for index, mbox in enumerate(self.chain.middleboxes):
            if not isinstance(mbox, Monitor):
                continue  # only Monitors expose a countable oracle view
            # A middlebox inserted mid-run (§11) never saw the packets
            # released before its insert; account from that floor.
            expected = self.oracle.released - baselines.get(mbox.name, 0)
            for position in self._stable_members(index):
                store = self.chain.store_of(mbox.name, position)
                counted = mbox.total_count(store)
                if counted < expected:
                    self._flag(
                        "release-safety",
                        f"{mbox.name} replica p{position} accounts for "
                        f"{counted} packets < {expected} released since "
                        f"it joined the chain")

    def check_pruning_bound(self) -> None:
        """Invariant 3: floors bounded by MAX; retained logs above floor."""
        for index, mbox in enumerate(self.chain.middleboxes):
            for position in self._stable_members(index):
                state = self.chain.replicas[position].states[mbox.name]
                floor = state.commit_floor
                for partition, committed in floor.items():
                    if committed > state.max.get(partition, 0):
                        self._flag(
                            "pruning-bound",
                            f"{mbox.name} p{position}: commit floor "
                            f"{committed} exceeds MAX "
                            f"{state.max.get(partition, 0)} on partition "
                            f"{partition}")
                for log in state.retained:
                    if log.depvec and all(
                            seq + 1 <= floor.get(partition, 0)
                            for partition, seq in log.depvec.items()):
                        self._flag(
                            "pruning-bound",
                            f"{mbox.name} p{position}: fully-committed log "
                            f"{log!r} not pruned")

    def check_timeline_consistency(self) -> None:
        """Telemetry invariant: committed timeline attempts must carry
        per-phase durations summing exactly to some recovery report's
        total (the §5.2 phases partition the recovery span)."""
        if self.orchestrator is None:
            return
        telemetry = getattr(self.orchestrator, "telemetry", None)
        if telemetry is None or not telemetry.timeline.enabled:
            return
        totals = [a.total_s for a in telemetry.timeline.committed_attempts()]
        seen: Set[int] = set()
        for event in self.orchestrator.history:
            report = event.report
            if report is None or id(report) in seen:
                continue
            seen.add(id(report))
            if not any(abs(t - report.total_s) <= 1e-12 for t in totals):
                self._flag(
                    "timeline-consistency",
                    f"recovery report total {report.total_s * 1e3:.6f}ms for "
                    f"positions {report.positions} has no matching committed "
                    f"timeline attempt (attempt totals: "
                    f"{[round(t * 1e3, 6) for t in totals]}ms)")

    def check_control_plane(self) -> None:
        """PROTOCOL.md §9 invariants on a replicated control plane.

        Only active when ``orchestrator`` is an
        :class:`~repro.orchestration.ensemble.OrchestratorEnsemble`:

        * **at-most-one-lease**: no instant may see two members holding
          unexpired leases (the single global clock makes this exact);
        * **one-leader-per-epoch**: the election log never records the
          same epoch twice (grants are durable and monotonic);
        * **no-double-recovery**: the chain-side epoch gate never
          applies two re-steers replacing the *same* dead server --
          the split-brain signature fencing exists to prevent.
        """
        ensemble = self.orchestrator
        if ensemble is None or not hasattr(ensemble, "election_log"):
            return
        valid = ensemble.leaders_with_valid_lease()
        if len(valid) > 1:
            self._flag(
                "dual-leader",
                f"{len(valid)} members hold unexpired leases: "
                f"{[f'm{m.index}@{m.epoch}' for m in valid]}")
        epochs = [epoch for epoch, _ in ensemble.election_log]
        if len(epochs) != len(set(epochs)):
            dupes = sorted({e for e in epochs if epochs.count(e) > 1})
            self._flag(
                "leader-per-epoch",
                f"epochs won more than once: {dupes} "
                f"(log: {ensemble.election_log})")
        replaced: Dict[str, object] = {}
        for command in ensemble.gate.applied:
            if command.kind != "re-steer" or not command.detail:
                continue
            # detail = "replace <dead server> with <new server>"
            old = command.detail.split(" with ")[0]
            first = replaced.setdefault(old, command)
            if first is not command and first.epoch != command.epoch:
                self._flag(
                    "double-recovery",
                    f"{old!r} re-steered under epoch {first.epoch} and "
                    f"again under epoch {command.epoch}")

    def check_overload(self) -> None:
        """PROTOCOL.md §12 invariants on an admission-gated chain.

        Only active when the chain carries an
        :class:`~repro.core.admission.AdmissionControl`:

        * **no-in-chain-drop**: with ingress shedding in force nothing
          past the classifier may be dropped -- every NIC's
          ``rx_dropped`` and the buffer's overflow counter must be
          zero (an in-chain drop loses replicated state the piggyback
          protocol already accounted for);
        * **queue-bounds**: every registered pressure source's peak
          occupancy stays within the largest bound that was in force
          (chaos may shrink a bound below already-enqueued work);
        * **shed-conservation**: ``offered == admitted + shed``,
          overall and per class -- no packet vanishes at the gate
          without being counted and flight-logged;
        * **shed-ordering**: cumulative shed fractions are monotone
          non-increasing with priority class (lower classes starve
          first, by at least as much).
        """
        admission = self.chain.admission
        if admission is None:
            return
        for position, replica in enumerate(self.chain.replicas):
            nic = replica.server.nic
            if nic.rx_dropped:
                self._flag("no-in-chain-drop",
                           f"NIC at p{position} tail-dropped "
                           f"{nic.rx_dropped} packets despite admission gate")
        if self.chain.buffer.overflow_dropped:
            self._flag("no-in-chain-drop",
                       f"buffer overflow-dropped "
                       f"{self.chain.buffer.overflow_dropped} packets "
                       f"despite admission gate")
        if admission.bus is not None:
            for source in admission.bus.sources:
                limit = max(source.bound_peak, source.bound)
                if source.peak > limit:
                    self._flag("queue-bounds",
                               f"pressure source {source.name!r} peaked at "
                               f"{source.peak} > bound {limit}")
        if admission.offered != admission.admitted + admission.shed:
            self._flag("shed-conservation",
                       f"offered {admission.offered} != admitted "
                       f"{admission.admitted} + shed {admission.shed}")
        for cls in range(admission.n_classes):
            offered = admission.offered_by_class[cls]
            accounted = (admission.admitted_by_class[cls]
                         + admission.shed_by_class[cls])
            if offered != accounted:
                self._flag("shed-conservation",
                           f"class {cls}: offered {offered} != "
                           f"admitted+shed {accounted}")
        fractions = [
            (admission.shed_by_class[cls] / offered if offered else 0.0)
            for cls in range(admission.n_classes)
            for offered in (admission.offered_by_class[cls],)]
        for cls in range(1, admission.n_classes):
            # Tolerance absorbs integer granularity on tiny samples.
            if (admission.offered_by_class[cls] >= 100
                    and admission.offered_by_class[cls - 1] >= 100
                    and fractions[cls] > fractions[cls - 1] + 0.05):
                self._flag(
                    "shed-ordering",
                    f"class {cls} shed {fractions[cls]:.1%} > lower "
                    f"class {cls - 1} shed {fractions[cls - 1]:.1%}")

    def check_brownout(self, quiescent: bool = False) -> None:
        """§12.3: brownout transitions are journaled 1:1 and the
        controller always returns to level 0 once pressure clears."""
        brownout = self.brownout
        if brownout is None:
            return
        if brownout.journal is not None \
                and brownout.transitions != brownout.journaled:
            self._flag(
                "brownout-journal",
                f"{len(brownout.transitions)} transitions vs "
                f"{len(brownout.journaled)} journaled entries")
        enters = sum(1 for tr in brownout.transitions if tr.kind == "enter")
        exits = sum(1 for tr in brownout.transitions if tr.kind == "exit")
        if quiescent:
            if not brownout.balanced():
                self._flag(
                    "brownout-exit",
                    f"still at level {brownout.level} at quiescence "
                    f"(timeline: {brownout.timeline()})")
            if enters != exits:
                self._flag(
                    "brownout-exit",
                    f"{enters} enters vs {exits} exits at quiescence")
        elif exits > enters:
            self._flag("brownout-exit",
                       f"{exits} exits but only {enters} enters")

    def check_convergence(self) -> None:
        """Invariant 4 (quiescent): group members hold identical state."""
        for index, mbox in enumerate(self.chain.middleboxes):
            members = self._stable_members(index)
            if len(members) < 2:
                continue
            head = members[0]
            head_state = self.chain.replicas[head].states[mbox.name]
            reference = head_state.store.snapshot()
            for position in members[1:]:
                state = self.chain.replicas[position].states[mbox.name]
                if state.pending:
                    self._flag(
                        "recovery-consistency",
                        f"{mbox.name} p{position}: {len(state.pending)} "
                        f"logs still pending at quiescence")
                if state.max != head_state.max:
                    self._flag(
                        "recovery-consistency",
                        f"{mbox.name} p{position}: MAX {state.max} != "
                        f"head p{head} MAX {head_state.max}")
                if state.store.snapshot() != reference:
                    self._flag(
                        "recovery-consistency",
                        f"{mbox.name} p{position}: store diverges from "
                        f"head p{head}")

    # -- entry point -----------------------------------------------------------------

    def audit(self, quiescent: bool = False) -> List[InvariantViolation]:
        """Run all applicable checks; returns violations found *this* call."""
        self.audits += 1
        before = len(self.violations)
        # Election safety holds regardless of data-plane degradation --
        # a degraded chain still must not see two fenced leaders.
        self.check_control_plane()
        # Overload invariants hold even degraded: shedding stays at
        # ingress and counted no matter what the data plane lost.
        self.check_overload()
        self.check_brownout(quiescent=quiescent)
        if self.chain.degraded:
            return self.violations[before:]
        self.check_log_propagation()
        self.check_release_safety()
        self.check_pruning_bound()
        self.check_timeline_consistency()
        if quiescent:
            self.check_convergence()
        return self.violations[before:]
