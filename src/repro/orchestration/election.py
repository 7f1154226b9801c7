"""Lease-based leader election with epochs (PROTOCOL.md §9).

The orchestrator ensemble elects a single leader through sim-time
leases: a candidate picks ``epoch = max_epoch_seen + 1``, votes for
itself (durably -- a crash does not forget granted epochs), and asks
every peer for a grant over the control plane (``reliable_call``, so
drops, duplicates, partitions, and crashed peers cost bounded time).
A peer grants at most one candidate per epoch and refuses while it
holds an unexpired lease for a different leader; a majority of grants
makes the candidate leader with a lease anchored at the *start* of its
vote round (conservative: the leader's view of its lease always
expires no later than any granter's).

Leadership is kept alive by renewal rounds every ``renew_every_s``; a
majority of acks re-anchors the lease, a higher-epoch rejection or an
expired lease steps the leader down.  Because the simulation has one
global clock there is no skew term: *at most one member can hold an
unexpired lease at any instant*, and each epoch has at most one leader
ever (grants are monotonic).  Commands are additionally lease-checked
at issue time (see the ensemble's journal step), closing the window
between lease expiry and the renewal loop noticing it.

Randomized candidacy delays (per-member seeded streams) keep split
votes rare; a split round simply times out and re-runs with a fresh
epoch.  All timing is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..net.retry import RetryPolicy, reliable_call
from ..sim import CancelledError, Interrupt

__all__ = ["ElectionConfig", "ElectionMember"]

#: Quick, bounded vote/renew RPCs: two attempts, no jitter, so
#: election timing stays a deterministic function of the seed.
ELECTION_RETRY = RetryPolicy(timeout_s=1.5e-3, max_attempts=2,
                             backoff_base_s=0.5e-3, jitter_frac=0.0)


@dataclass(frozen=True)
class ElectionConfig:
    """Lease timing knobs (simulated seconds)."""

    #: How long a grant/renewal keeps a leader legitimate.
    lease_s: float = 10e-3
    #: Leader renewal cadence; must leave the lease several rounds of
    #: headroom so one dropped round does not depose a healthy leader.
    renew_every_s: float = 3e-3
    #: Base candidacy delay after a member sees the lease lapse; the
    #: actual delay is ``uniform(1.0, 2.0) * candidacy_base_s`` from the
    #: member's own seeded stream, staggering candidates.
    candidacy_base_s: float = 3e-3


class ElectionMember:
    """One replica's view of the election state machine.

    Subclasses (the ensemble) override the ``_on_*`` hooks to attach
    and detach the orchestrator as leadership moves.  ``crash`` /
    ``restart`` / ``pause`` model the fault kinds chaos injects;
    election state (``max_granted_epoch``) survives a crash, mirroring
    a write-ahead vote record on disk.
    """

    def __init__(self, sim, net, index: int, server_name: str,
                 config: Optional[ElectionConfig] = None, rng=None,
                 telemetry=None):
        from ..telemetry import NULL_TELEMETRY
        self.sim = sim
        self.net = net
        self.index = index
        self.server_name = server_name
        self.config = config or ElectionConfig()
        self.rng = rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        registry = self.telemetry.registry
        registry.counter("election/rounds", lambda: self.rounds)
        registry.counter("election/lease_renewals",
                         lambda: self.lease_renewals)
        self.rounds = 0
        self.lease_renewals = 0
        self._peers: List["ElectionMember"] = []
        # Durable election state (survives crash/restart).
        self.max_granted_epoch = 0
        self.max_epoch_seen = 0
        # Volatile views.
        self.leader_id: Optional[int] = None
        self.lease_expires_at = float("-inf")
        self.is_leader = False
        self.epoch = 0
        self.lease_deadline = float("-inf")
        self.crashed = False
        self.paused = False
        self.elections_won = 0
        self._paused_epoch: Optional[int] = None
        self._proc = None

    # -- wiring ------------------------------------------------------------------

    def set_peers(self, members: List["ElectionMember"]) -> None:
        self._peers = [m for m in members if m is not self]

    @property
    def majority(self) -> int:
        return (len(self._peers) + 1) // 2 + 1

    # -- overridable hooks (the ensemble wires the orchestrator here) -----------

    def _on_elected(self, epoch: int) -> None:
        pass

    def _on_deposed(self, reason: str) -> None:
        pass

    def _on_paused(self) -> None:
        pass

    def _on_resume_assert(self, epoch: int) -> None:
        """Re-assert leadership after a pause; may raise StaleEpochError."""

    def _on_resumed(self, epoch: int) -> None:
        pass

    # -- peer-side handlers (run on this member's server via control_call) -------

    def handle_vote(self, epoch: int, candidate: int) -> Tuple[str, int]:
        """Grant iff the epoch is fresh and no other lease is live."""
        now = self.sim.now
        if epoch <= self.max_granted_epoch:
            return ("reject", self.max_granted_epoch)
        if (self.lease_expires_at > now and self.leader_id is not None
                and self.leader_id != candidate):
            return ("reject", self.max_granted_epoch)
        self.max_granted_epoch = epoch
        self.max_epoch_seen = max(self.max_epoch_seen, epoch)
        self.leader_id = candidate
        self.lease_expires_at = now + self.config.lease_s
        return ("grant", epoch)

    def handle_renew(self, epoch: int, leader_id: int) -> Tuple[str, int]:
        """Extend the lease unless a newer epoch has been granted."""
        if epoch < self.max_granted_epoch:
            return ("reject", self.max_granted_epoch)
        self.max_granted_epoch = max(self.max_granted_epoch, epoch)
        self.max_epoch_seen = max(self.max_epoch_seen, epoch)
        self.leader_id = leader_id
        self.lease_expires_at = self.sim.now + self.config.lease_s
        return ("ack", epoch)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._proc = self.sim.process(self._run(),
                                      name=f"election/m{self.index}")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")
        self._proc = None

    def crash(self) -> None:
        """Fail-stop: the member's server goes silent; durable election
        state (granted epochs) survives for ``restart``."""
        if self.crashed:
            return
        self.crashed = True
        self.paused = False  # a reboot ends any freeze
        self.net.servers[self.server_name].fail()
        if self.is_leader:
            self._step_down("crashed")
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("crashed")
        self._proc = None

    def restart(self) -> None:
        if not self.crashed:
            return
        self.crashed = False
        self.net.servers[self.server_name].restore()
        self.start()

    def pause(self, duration_s: float) -> None:
        """Freeze the member (GC pause / live-migration stall).

        Unlike a crash the member *believes whatever it believed* --
        a paused leader still thinks it leads.  On resume it must
        re-assert leadership with its old epoch; if a successor was
        elected meanwhile, the assert is fenced and it steps down
        (the split-brain scenario epoch fencing exists for).

        A frozen machine answers nothing -- votes, renewals, journal
        fetches all time out against it for the duration -- so its
        server goes down with it (a paused member that kept granting
        votes could hand out a second lease inside its own).
        """
        if self.crashed or self.paused:
            return
        self.paused = True
        self.net.servers[self.server_name].fail()
        self._paused_epoch = self.epoch if self.is_leader else None
        if self.is_leader:
            self._on_paused()
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("paused")
        self._proc = None
        self.sim.schedule_callback(duration_s, self._resume_from_pause)

    # -- internals ---------------------------------------------------------------

    def _resume_from_pause(self) -> None:
        if self.crashed or not self.paused:
            return
        self.paused = False
        self.net.servers[self.server_name].restore()
        if self._paused_epoch is not None and self.is_leader:
            self._proc = self.sim.process(
                self._stale_resume(self._paused_epoch),
                name=f"election/m{self.index}/resume")
        else:
            self.start()

    def _stale_resume(self, epoch: int):
        """First act after a pause: re-assert leadership at ``epoch``."""
        from ..core.fencing import StaleEpochError
        try:
            anchor = self.sim.now
            acks, saw_newer = yield from self._renew_round(epoch)
            fenced = False
            try:
                self._on_resume_assert(epoch)
            except StaleEpochError:
                fenced = True
            if fenced or saw_newer or acks < self.majority:
                self._step_down("fenced on resume" if fenced
                                else "lost lease during pause")
                self.start()
                return
            # No successor exists: the lease re-anchors and leadership
            # continues where it left off.
            self.lease_deadline = anchor + self.config.lease_s
            self.lease_expires_at = self.lease_deadline
            self._on_resumed(epoch)
            self._proc = self.sim.process(
                self._run(resume_lead=(epoch, anchor)),
                name=f"election/m{self.index}")
        except (Interrupt, CancelledError):
            return

    def _run(self, resume_lead: Optional[Tuple[int, float]] = None):
        while not self.crashed and not self.paused:
            try:
                if resume_lead is not None:
                    epoch, anchor = resume_lead
                    resume_lead = None
                    yield from self._lead(epoch, anchor, announce=False)
                yield from self._follower_wait()
                won, epoch, anchor = yield from self._campaign()
                if won:
                    yield from self._lead(epoch, anchor)
            except (Interrupt, CancelledError) as interrupted:
                cause = getattr(interrupted, "cause", None)
                if cause == "deposed":
                    continue  # rejoin the election as a follower
                return  # crashed / paused / stopped

    def _follower_wait(self):
        """Block until the known lease lapses, then stagger candidacy."""
        while True:
            now = self.sim.now
            if self.lease_expires_at > now:
                yield self.sim.timeout(self.lease_expires_at - now)
                continue
            delay = self.config.candidacy_base_s * (
                self.rng.uniform(1.0, 2.0) if self.rng is not None else 1.5)
            yield self.sim.timeout(delay)
            if self.lease_expires_at <= self.sim.now:
                return  # still leaderless: stand for election

    def _campaign(self):
        epoch = self.max_epoch_seen + 1
        if epoch <= self.max_granted_epoch:
            return False, epoch, self.sim.now
        anchor = self.sim.now
        # Durable self-vote: this member can never grant <= epoch again.
        self.max_epoch_seen = epoch
        self.max_granted_epoch = epoch
        self.rounds += 1
        self.telemetry.emit("election", "campaign", t=self.sim.now,
                            epoch=epoch,
                            detail=f"m{self.index} stands for epoch {epoch}")
        state = {"votes": 1, "pending": len(self._peers)}
        decided = self.sim.event()

        def tally(granted: bool) -> None:
            state["pending"] -= 1
            if granted:
                state["votes"] += 1
            if (not decided.triggered
                    and (state["votes"] >= self.majority
                         or state["pending"] == 0)):
                decided.succeed(None)

        for peer in self._peers:
            self.sim.process(self._collect(self._request_vote(peer, epoch),
                                           tally))
        # Early quorum: a majority decides the election; a crashed or
        # partitioned peer's timed-out request finishes in the
        # background without stretching the round (the lease is
        # anchored at ``anchor``, so round latency eats lease headroom).
        if self._peers and state["votes"] < self.majority:
            yield decided
        if state["votes"] >= self.majority and self.max_epoch_seen == epoch:
            return True, epoch, anchor
        return False, epoch, anchor

    def _collect(self, request, tally):
        """Run one peer RPC generator; feed its result to ``tally``."""
        outcome = yield from request
        tally(outcome)

    def _request_vote(self, peer: "ElectionMember", epoch: int):
        result = yield from reliable_call(
            self.net, self.server_name, peer.server_name,
            lambda: peer.handle_vote(epoch, self.index),
            policy=ELECTION_RETRY, payload_bytes=64, response_bytes=64)
        if not result.ok or result.value is None:
            return False
        verdict, seen = result.value
        if verdict == "grant":
            return True
        self.max_epoch_seen = max(self.max_epoch_seen, seen)
        return False

    def _lead(self, epoch: int, anchor: float, announce: bool = True):
        self.is_leader = True
        self.epoch = epoch
        self.lease_deadline = anchor + self.config.lease_s
        # Record our own lease: handle_vote must refuse competing
        # candidates for as long as we legitimately hold it.
        self.leader_id = self.index
        self.lease_expires_at = self.lease_deadline
        if announce:
            self.elections_won += 1
            self._on_elected(epoch)
        reason = "lease expired"
        while True:
            yield self.sim.timeout(self.config.renew_every_s)
            if not self.is_leader:
                return  # deposed externally while sleeping
            round_anchor = self.sim.now
            acks, saw_newer = yield from self._renew_round(epoch)
            if saw_newer:
                reason = "granted away to a newer epoch"
                break
            if acks >= self.majority:
                self.lease_deadline = round_anchor + self.config.lease_s
                self.lease_expires_at = self.lease_deadline
            if self.sim.now >= self.lease_deadline:
                break
        self._step_down(reason)

    def _renew_round(self, epoch: int):
        """One round of renewals; returns (acks incl. self, saw_newer).

        Returns as soon as a majority acks (or any peer reports a newer
        epoch): waiting out a dead peer's full retry budget would make
        every round longer than ``renew_every_s`` and bleed the lease
        dry between re-anchors.  Stragglers complete in the background.
        """
        self.lease_renewals += 1
        state = {"acks": 1, "newer": False, "pending": len(self._peers)}
        decided = self.sim.event()

        def tally(outcome: str) -> None:
            state["pending"] -= 1
            if outcome == "ack":
                state["acks"] += 1
            elif outcome == "newer":
                state["newer"] = True
            if (not decided.triggered
                    and (state["newer"] or state["acks"] >= self.majority
                         or state["pending"] == 0)):
                decided.succeed(None)

        for peer in self._peers:
            self.sim.process(self._collect(self._renew_one(peer, epoch),
                                           tally))
        if self._peers and state["acks"] < self.majority:
            yield decided
        return state["acks"], state["newer"]

    def _renew_one(self, peer: "ElectionMember", epoch: int):
        result = yield from reliable_call(
            self.net, self.server_name, peer.server_name,
            lambda: peer.handle_renew(epoch, self.index),
            policy=ELECTION_RETRY, payload_bytes=64, response_bytes=64)
        if not result.ok or result.value is None:
            return "silent"
        verdict, seen = result.value
        if verdict == "ack":
            return "ack"
        self.max_epoch_seen = max(self.max_epoch_seen, seen)
        return "newer"

    def _step_down(self, reason: str) -> None:
        if not self.is_leader:
            return
        self.is_leader = False
        self._on_deposed(reason)

    def depose(self, reason: str) -> None:
        """External step-down (a command of ours was fenced)."""
        if not self.is_leader:
            return
        self._step_down(reason)
        if (self._proc is not None and self._proc.is_alive
                and self._proc is not self.sim.active_process):
            self._proc.interrupt("deposed")

    @property
    def lease_valid(self) -> bool:
        """Leader-side view: may this member still issue commands?"""
        return self.is_leader and self.sim.now < self.lease_deadline

    def __repr__(self):
        role = "leader" if self.is_leader else "follower"
        state = ("crashed" if self.crashed
                 else "paused" if self.paused else "up")
        return (f"<ElectionMember m{self.index} {role} "
                f"epoch={self.epoch} {state}>")
