"""Replicated orchestrator ensemble (PROTOCOL.md §9).

N orchestrator replicas, each on its own control-plane server, elect a
leader through :mod:`repro.orchestration.election`; only the leader
runs the monitor/recover loops.  Every side-effecting command is
journaled to a quorum (:mod:`repro.orchestration.journal`) and fenced
by epoch at the chain's :class:`~repro.core.fencing.EpochGate` before
it takes effect, so:

* a **crashed leader** is replaced after its lease lapses; the new
  leader quorum-reads the journal, probes every position, and resumes
  any in-flight recovery idempotently (including a recovery that was
  mid-fetch while a chain replica was also down);
* a **partitioned leader** loses its journal quorum on the next
  command and steps down before it can declare, spawn, or re-steer;
* a **paused ex-leader** that wakes up re-asserts its old epoch and is
  fenced the moment a successor exists -- split-brain double recovery
  is structurally impossible, and every fencing is counted.

With ``n=1`` callers should use a plain :class:`Orchestrator`; the
CLI's ``--orchestrators 1`` default never constructs this class, so
single-orchestrator runs allocate no ensemble machinery and stay
bit-identical with pre-ensemble builds.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core.chain import FTCChain
from ..core.fencing import EpochGate, StaleEpochError
from ..net.retry import reliable_call
from ..sim import CancelledError, Interrupt, Simulator
from .election import ELECTION_RETRY, ElectionConfig, ElectionMember
from .journal import CommandJournal, JournalEntry
from .orchestrator import FailureEvent, Orchestrator

__all__ = ["OrchestratorEnsemble", "EnsembleMember"]


class EnsembleMember(ElectionMember):
    """One replica: election state + journal + a leader-only orchestrator."""

    def __init__(self, ensemble: "OrchestratorEnsemble", index: int,
                 server_name: str, config: ElectionConfig, rng,
                 **orchestrator_kwargs):
        super().__init__(ensemble.sim, ensemble.chain.net, index,
                         server_name, config=config, rng=rng,
                         telemetry=ensemble.telemetry)
        self.ensemble = ensemble
        self.journal = CommandJournal()
        self._seq = 0
        self._takeover_proc = None
        self.orch = Orchestrator(
            ensemble.sim, ensemble.chain,
            name=f"{ensemble.name}/m{index}",
            telemetry=ensemble.telemetry, **orchestrator_kwargs)
        self.orch.home = server_name
        #: All members share the ensemble's hook lists, so chaos hooks
        #: armed once fire regardless of which member currently leads.
        self.orch.recovery_hooks = ensemble.recovery_hooks
        self.orch.reconfig_hooks = ensemble.reconfig_hooks
        self.orch.on_leadership_lost = self._command_fenced

    # -- journal replication (the orchestrator's command guard) ------------------

    def journal_step(self, step: str, positions, detail: str = "") -> object:
        """Write-ahead journal one command to a quorum; fence by epoch.

        A generator (the orchestrator runs it via ``yield from``).
        ``detail`` carries a machine-readable descriptor (reconfig ops
        journal their :meth:`~repro.core.reconfig.ReconfigOp.describe`
        string so a successor can rebuild and resume them).  Raises
        :class:`StaleEpochError` when this member's lease has lapsed, a
        peer has granted a newer epoch, or no majority acks -- any of
        which means leadership is gone and the side effect must not
        happen.
        """
        if not self.lease_valid:
            raise StaleEpochError(
                f"m{self.index} epoch {self.epoch}: lease expired before "
                f"{step!r}")
        epoch = self.epoch
        self._seq += 1
        entry = JournalEntry(epoch=epoch, seq=self._seq, step=step,
                             positions=tuple(positions), t=self.sim.now,
                             detail=detail)
        self.journal.append(entry)
        self.ensemble.journal_appends += 1
        self.telemetry.emit(
            "journal", step, t=self.sim.now, epoch=epoch,
            detail=f"m{self.index} seq {self._seq} write-ahead "
                   f"positions={list(positions)}")
        acks, saw_newer = 1, False
        replications = [self.sim.process(self._replicate(peer, entry))
                        for peer in self._peers]
        for replication in replications:
            outcome = yield replication
            if outcome == "ok":
                acks += 1
            elif outcome == "stale":
                saw_newer = True
        if saw_newer:
            raise StaleEpochError(
                f"m{self.index} epoch {epoch}: a peer has granted a newer "
                f"epoch (step {step!r})")
        if acks < self.majority:
            raise StaleEpochError(
                f"m{self.index} epoch {epoch}: journal quorum lost "
                f"({acks}/{self.majority} acks for {step!r})")
        self.ensemble.journal_quorum_writes += 1
        self.telemetry.emit("journal", "quorum", positions, t=self.sim.now,
                            epoch=epoch, step=step, member=self.index,
                            acks=acks)
        # Chain-side fence last: the command is durable, now stamp it.
        self.ensemble.gate.check(epoch, step, positions)

    def _replicate(self, peer: "EnsembleMember", entry: JournalEntry):
        result = yield from reliable_call(
            self.net, self.server_name, peer.server_name,
            lambda: peer.accept_entry(entry),
            policy=ELECTION_RETRY, payload_bytes=128, response_bytes=64)
        if not result.ok or result.value is None:
            return "silent"
        return result.value

    def accept_entry(self, entry: JournalEntry) -> str:
        """Peer-side journal append (runs on this member's server)."""
        if entry.epoch < self.max_granted_epoch:
            return "stale"
        self.max_epoch_seen = max(self.max_epoch_seen, entry.epoch)
        self.journal.append(entry)
        return "ok"

    # -- leadership transitions ---------------------------------------------------

    def _on_elected(self, epoch: int) -> None:
        self.ensemble._note_elected(self, epoch)
        self._takeover_proc = self.sim.process(
            self._takeover(epoch), name=f"{self.orch.name}/takeover")

    def _takeover(self, epoch: int):
        """Fence the chain, quorum-read the journal, resume monitoring."""
        try:
            try:
                self.ensemble.gate.check(epoch, "assume-leadership")
            except StaleEpochError:
                # Epochs grow monotonically across elections, so this
                # only fires if a *later* leader won while we were
                # scheduled; yield gracefully.
                self.depose("fenced at takeover")
                return
            fetches = [self.sim.process(self._fetch_journal(peer))
                       for peer in self._peers]
            for fetch in fetches:
                entries = yield fetch
                if entries:
                    self.journal.merge(entries)
            if not self.is_leader:
                return  # deposed while reading journals
            self._assume_leadership(epoch)
        except (Interrupt, CancelledError):
            return

    def _assume_leadership(self, epoch: int) -> None:
        """Lead with this journal as the command guard (elected or resumed)
        and replay what it shows open: recoveries after one probe round,
        reconfigurations at once."""
        open_positions, open_reconfigs = self.journal.open_commands()
        self.orch.command_guard = self.journal_step
        self.orch.start(epoch=epoch, resume_open=open_positions)
        self.orch.resume_reconfigs(open_reconfigs)

    def _fetch_journal(self, peer: "EnsembleMember"):
        result = yield from reliable_call(
            self.net, self.server_name, peer.server_name,
            lambda: peer.journal.entries(),
            policy=ELECTION_RETRY, payload_bytes=64, response_bytes=512)
        return result.value if result.ok else None

    def _on_deposed(self, reason: str) -> None:
        self._stop_leading()
        self.ensemble._note_deposed(self, reason)

    def _on_paused(self) -> None:
        # A stalled VM's TCP connections die: the in-flight recovery
        # attempt unwinds (thaw + release), but the member still
        # *believes* it leads -- the dangerous half of a pause.
        self._stop_leading()

    def _on_resume_assert(self, epoch: int) -> None:
        # The woken ex-leader's first act: re-assert its old epoch
        # against the chain-side fence.  Raises StaleEpochError (and
        # counts the fencing) when a successor has moved the fence.
        self.ensemble.gate.check(epoch, "leader-resume")

    def _on_resumed(self, epoch: int) -> None:
        self.ensemble._note_resumed(self, epoch)
        self._assume_leadership(epoch)

    def _stop_leading(self) -> None:
        if (self._takeover_proc is not None and self._takeover_proc.is_alive
                and self._takeover_proc is not self.sim.active_process):
            self._takeover_proc.interrupt("deposed")
        self._takeover_proc = None
        self.orch.stop()
        self.orch.reset_in_flight()

    def _command_fenced(self, exc: Exception) -> None:
        """The orchestrator hit a fence: leadership is gone."""
        self.depose(f"command fenced: {exc}")


class OrchestratorEnsemble:
    """N replicated orchestrators with leader election + epoch fencing.

    Drop-in for :class:`Orchestrator` where chaos tooling is concerned:
    exposes ``recovering_positions`` / ``lost_positions`` / ``history``
    / ``recovery_hooks`` / ``telemetry`` as the union over members.
    """

    def __init__(self, sim: Simulator, chain: FTCChain, n: int = 3,
                 election: Optional[ElectionConfig] = None,
                 heartbeat_interval_s: float = 2e-3,
                 misses_allowed: int = 2,
                 corroborate_suspects: bool = False,
                 region: Optional[str] = None,
                 name: Optional[str] = None, telemetry=None):
        if n < 2:
            raise ValueError(
                "an ensemble needs n >= 2 members; use Orchestrator for "
                "an unreplicated control plane")
        self.sim = sim
        self.chain = chain
        self.n = n
        self.name = name or f"{chain.name}-ensemble"
        self.telemetry = (telemetry if telemetry is not None
                          else getattr(chain, "telemetry", None))
        if self.telemetry is None:
            from ..telemetry import NULL_TELEMETRY
            self.telemetry = NULL_TELEMETRY
        self.gate = EpochGate(sim, telemetry=self.telemetry)
        chain.gate = self.gate
        #: Shared by every member's orchestrator (chaos hooks survive
        #: leadership changes).
        self.recovery_hooks: List = []
        self.reconfig_hooks: List = []
        #: ``(epoch, member index)`` per election won, in order -- the
        #: auditor proves at-most-one-leader-per-epoch from this.
        self.election_log: List = []
        self.stepdowns = 0
        self.journal_appends = 0
        self.journal_quorum_writes = 0
        registry = self.telemetry.registry
        registry.counter("ensemble/elections", lambda: len(self.election_log))
        registry.counter("ensemble/stepdowns", lambda: self.stepdowns)
        registry.counter("ensemble/journal_appends",
                         lambda: self.journal_appends)
        registry.counter("ensemble/journal_quorum_writes",
                         lambda: self.journal_quorum_writes)
        registry.gauge("ensemble/epoch", lambda: max(
            (m.epoch for m in self.members), default=0))
        registry.gauge("ensemble/leader", lambda: (
            -1 if self.leader is None else self.leader.index))
        registry.gauge("ensemble/members_alive", lambda: self.alive_members)
        if self.telemetry.enabled:
            self.telemetry.tracer.set_thread_name(9998, "control-plane")
        config = election or ElectionConfig()
        self.members: List[EnsembleMember] = []
        for index in range(n):
            server_name = f"{self.name}-orch{index}"
            server = chain.net.add_server(server_name, n_cores=1)
            if region is not None:
                server.region = region
            rng = chain.streams.stream(f"election-m{index}")
            member = EnsembleMember(
                self, index, server_name, config, rng,
                heartbeat_interval_s=heartbeat_interval_s,
                misses_allowed=misses_allowed,
                corroborate_suspects=corroborate_suspects,
                region=region)
            self.members.append(member)
        for member in self.members:
            member.set_peers(self.members)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        for member in self.members:
            member.start()

    def stop(self) -> None:
        for member in self.members:
            member.stop()
            member.orch.stop()

    # -- election bookkeeping -----------------------------------------------------

    def _note_elected(self, member: EnsembleMember, epoch: int) -> None:
        self.election_log.append((epoch, member.index))
        self.telemetry.emit("election", "elected", t=self.sim.now,
                            epoch=epoch, member=member.index,
                            detail=f"m{member.index} epoch {epoch}")

    def _note_deposed(self, member: EnsembleMember, reason: str) -> None:
        self.stepdowns += 1
        self.telemetry.emit(
            "election", "stepped-down", t=self.sim.now, epoch=member.epoch,
            member=member.index, reason=reason,
            detail=f"m{member.index} epoch {member.epoch}: {reason}")

    def _note_resumed(self, member: EnsembleMember, epoch: int) -> None:
        self.telemetry.emit("election", "leader-resumed", t=self.sim.now,
                            epoch=epoch, member=member.index,
                            detail=f"m{member.index} epoch {epoch}")

    # -- introspection (chaos / auditor / tests) ---------------------------------

    @property
    def leader(self) -> Optional[EnsembleMember]:
        """The member currently *acting* as leader, if any."""
        actives = self.active_leaders()
        return actives[0] if actives else None

    def active_leaders(self) -> List[EnsembleMember]:
        """Members that believe they lead and are running (not paused)."""
        return [m for m in self.members
                if m.is_leader and not m.crashed and not m.paused]

    def leaders_with_valid_lease(self) -> List[EnsembleMember]:
        """Members entitled to issue commands right now (<= 1, always)."""
        return [m for m in self.active_leaders() if m.lease_valid]

    @property
    def alive_members(self) -> int:
        return sum(1 for m in self.members if not m.crashed)

    @property
    def has_quorum(self) -> bool:
        return self.alive_members >= self.members[0].majority

    @property
    def max_epoch(self) -> int:
        return max(self.gate.max_epoch,
                   max((m.max_epoch_seen for m in self.members), default=0))

    @property
    def recovering_positions(self) -> Set[int]:
        out: Set[int] = set()
        for member in self.members:
            out |= member.orch.recovering_positions
        return out

    @property
    def lost_positions(self) -> Set[int]:
        out: Set[int] = set()
        for member in self.members:
            out |= member.orch.lost_positions
        return out

    def request_reconfig(self, op, resumed: bool = False):
        """Submit a reconfiguration to the acting leader (§11)."""
        from ..core.reconfig import ReconfigError
        leader = self.leader
        if leader is None:
            raise ReconfigError("no acting leader to drive the "
                                "reconfiguration")
        return leader.orch.request_reconfig(op, resumed=resumed)

    @property
    def reconfig_history(self) -> List:
        return [r for m in self.members for r in m.orch.reconfig_history]

    @property
    def history(self) -> List[FailureEvent]:
        events = [e for m in self.members for e in m.orch.history]
        return sorted(events, key=lambda e: e.detected_at)

    def _journal_brownout(self, transition) -> None:
        """:class:`BrownoutController` journal sink (PROTOCOL.md §12.3):
        one ``brownout-journal`` process per transition, issuing its step
        through the acting leader's command guard."""
        leader = self.leader
        if leader is not None:
            self.sim.process(self._brownout_command(leader.orch, transition),
                             name="brownout-journal")

    @staticmethod
    def _brownout_command(orch: Orchestrator, transition):
        try:
            yield from orch._command(f"brownout-{transition.kind}", [],
                                     transition.describe())
        except StaleEpochError:
            pass  # fenced mid-write: the flight ring still has it

    def __repr__(self):
        leader = self.leader
        who = f"m{leader.index}@{leader.epoch}" if leader else "none"
        return (f"<OrchestratorEnsemble n={self.n} leader={who} "
                f"alive={self.alive_members}>")
