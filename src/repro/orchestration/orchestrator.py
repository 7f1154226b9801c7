"""The central orchestrator (§3.2, §5.2).

A fault-tolerant SDN controller (ONOS in the paper's implementation)
deploys chains, reliably monitors them, detects fail-stop failures,
and initiates recovery.  After deployment it stays off the data path.

Failure detection uses heartbeat probing: the orchestrator pings every
replica's control module on a fixed grid of intervals and declares a
failure after ``misses_allowed + 1`` consecutive silent rounds (one
round = ``heartbeat_retry``'s attempts, sized to fit in the interval;
PROTOCOL.md §4 states the detection contract).  A reliable hop whose
receiver stops acknowledging reports it (a *silence report*): the next
round starts at once, and one silent round then suffices.  Recovery
then runs the §5.2 procedure (``repro.core.recovery``), with the
initialization delay derived from the orchestrator-to-region control
RTT -- exactly the dependence Fig 13 measures.

Monitoring continues *during* recovery (§5.2: FTC tolerates failures
that strike while recovery is in progress): positions not currently
being recovered keep getting probed, and a crash detected mid-recovery
aborts the running attempt and re-enters ``recover_positions`` with
the union of failed positions.  Heartbeats and recovery fetches ride
the ``repro.net.retry`` policy, so a dropped control message costs a
bounded timeout, never a hang.  When more than f members of a group
are gone, the chain enters *degraded* mode (the failure event carries
the error, meters keep reporting) instead of killing the simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..core.chain import FTCChain
from ..core.fencing import StaleConfigError, StaleEpochError
from ..core.reconfig import (
    ReconfigError,
    ReconfigOp,
    ReconfigReport,
    apply_reconfig,
)
from ..core.recovery import (
    RecoveryError,
    RecoveryReport,
    UnrecoverableError,
    recover_positions,
)
from ..net.retry import RetryPolicy, reliable_call
from ..sim import CancelledError, Interrupt, Simulator
from ..telemetry import NULL_TELEMETRY

__all__ = ["Orchestrator", "FailureEvent"]

#: Interrupt cause that wakes a sleeping monitor loop for a report.
_WAKE = "silence report"

#: Time to boot a replacement middlebox instance once the command
#: arrives in-region (container start, Click config load).
SPAWN_TIME_S = 0.3e-3

#: Installing updated flow rules at the affected switches.
REROUTE_DELAY_S = 0.5e-3

#: Recovery passes a failure may take before the orchestrator abandons it.
MAX_RECOVERY_ATTEMPTS = 20


@dataclass
class FailureEvent:
    """One detected failure and its recovery outcome."""

    positions: List[int]
    detected_at: float
    detection_delay_s: float
    report: Optional[RecoveryReport] = None
    #: Set when recovery gave up (>f members of a group gone).
    error: Optional[str] = None
    #: recover_positions entries made while this event was open (>1
    #: means the attempt was re-entered, e.g. a crash during recovery).
    recovery_attempts: int = 0

    @property
    def recovered(self) -> bool:
        return self.report is not None and self.error is None


class Orchestrator:
    """Heartbeat monitoring + recovery coordination for one chain."""

    def __init__(self, sim: Simulator, chain: FTCChain,
                 heartbeat_interval_s: float = 2e-3,
                 misses_allowed: int = 2,
                 region: Optional[str] = None,
                 heartbeat_retry: Optional[RetryPolicy] = None,
                 corroborate_suspects: bool = False,
                 name: str = "orchestrator", telemetry=None):
        self.sim = sim
        self.chain = chain
        self.heartbeat_interval_s = heartbeat_interval_s
        self.misses_allowed = misses_allowed
        self.region = region
        self.name = name
        #: Defaults to the chain's telemetry so one bundle stitches the
        #: data plane and the control plane together.
        self.telemetry = (telemetry if telemetry is not None
                          else getattr(chain, "telemetry", NULL_TELEMETRY))
        registry = self.telemetry.registry
        for name in ("detection_delay", "recovery_total",
                     "phase_initialization", "phase_state_recovery",
                     "phase_rerouting"):
            registry.histogram(f"orch/{name}_s")
        for name in ("failures_detected", "recoveries", "abandoned",
                     "suspects_cleared", "suspects_cleared_self",
                     "resumed_positions"):
            registry.counter(f"orch/{name}", partial(getattr, self, name))
        self.failures_detected = 0
        self.recoveries = 0
        self.abandoned = 0
        self.resumed_positions = 0
        #: Two quick probes per round, fitting the classic 0.8*interval
        #: budget; no jitter so detection-delay bounds stay deterministic.
        self.heartbeat_retry = heartbeat_retry or RetryPolicy(
            timeout_s=heartbeat_interval_s * 0.4, max_attempts=2,
            backoff_base_s=0.0, jitter_frac=0.0)
        self.recovery_retry = RetryPolicy()
        #: PROTOCOL.md §8: before declaring a suspect failed, ask a
        #: *witness* (another alive position) to probe it over its own
        #: path with the patient recovery policy.  Distinguishes a
        #: lossy link eating heartbeats from a dead replica, so data-
        #: plane impairment alone never triggers spurious failover.
        #: Off by default: the extra probe shifts detection timing
        #: (fig13 measures it), so clean runs stay bit-identical.
        self.corroborate_suspects = corroborate_suspects
        self.suspects_cleared = 0
        #: Suspects cleared by a *self-probe* (no alive witness existed,
        #: so the second opinion rode the suspect's own control path) --
        #: counted apart because it is a strictly weaker signal.
        self.suspects_cleared_self = 0
        #: Control-plane replication (PROTOCOL.md §9.3).  An ensemble
        #: member sets ``epoch`` + ``command_guard`` when this
        #: orchestrator wins an election: the guard is the member's
        #: ``journal_step(step, positions, detail)``, which journals the
        #: step to a quorum and raises :class:`StaleEpochError` if this
        #: leader has been fenced; :meth:`_command` runs it before every
        #: side-effecting command.  All three default to off, so a
        #: standalone orchestrator runs the exact pre-ensemble code path.
        self.epoch: Optional[int] = None
        self.command_guard = None
        self.on_leadership_lost: Optional[Callable[[Exception], None]] = None
        #: Server the probes originate from (an ensemble member's own
        #: server, so partitions isolate its heartbeats too).  ``None``
        #: keeps the legacy in-region probe source.
        self.home: Optional[str] = None
        #: Observers called as ``hook(phase, positions)`` on every
        #: recovery phase -- the chaos subsystem injects
        #: failures-during-recovery through these.
        self.recovery_hooks: List[Callable[[str, List[int]], None]] = []
        #: Observers called as ``hook(phase, positions)`` on every live
        #: reconfiguration phase (PROTOCOL.md §11) -- chaos injects
        #: crash-during-reconfig through these.
        self.reconfig_hooks: List[Callable[[str, List[int]], None]] = []
        #: Completed (or aborted) reconfiguration reports, in order.
        self.reconfig_history: List[ReconfigReport] = []
        self.history: List[FailureEvent] = []
        self.heartbeats_sent = 0
        self.control_retries = 0
        self._misses: Dict[int, int] = {}
        self._last_seen_alive: Dict[int, float] = {}
        self._process = None
        #: Silence reports accepted; reported position -> arrival time,
        #: until a round judges it; the monitor loop's pending sleep.
        self.silence_reports = 0
        self._reported: Dict[int, float] = {}
        self._nap = None
        self._recovering_positions: Set[int] = set()
        self._lost_positions: Set[int] = set()
        self._recovery_driver = None
        self._recovery_inner = None
        self._open_events: List[FailureEvent] = []
        self._reconfig_procs: Dict = {}  # insertion-ordered set
        self._reconfig_active = False
        #: Turn events of queued requests, oldest first (``_reconfig_turn``).
        self._reconfig_waiters: deque = deque()
        self._stopping = False
        # Satellite of §11: a route change (recovery re-steer or a
        # reconfiguration switch) replaces the monitored instance, so
        # accumulated misses against the *old* one must not count
        # toward declaring the *new* one dead -- and, conversely, the
        # new instance must be probed so a crash right after the
        # switch is detected.
        observers = getattr(chain, "route_observers", None)
        if observers is not None:
            observers.append(self._on_route_changed)
        observers = getattr(chain, "silence_observers", None)
        if observers is not None:
            observers.append(self._on_hop_silent)

    # -- lifecycle ---------------------------------------------------------------

    def start(self, epoch: Optional[int] = None,
              resume_open: Optional[Set[int]] = None) -> None:
        """Begin monitoring.

        ``epoch`` stamps every subsequent command (ensemble leaders);
        ``resume_open`` -- positions the replicated journal shows as
        declared-but-uncommitted -- triggers one authoritative probe
        round first, so a new leader re-detects immediately and resumes
        the previous leader's in-flight recovery idempotently.
        """
        self._stopping = False
        if epoch is not None:
            self.epoch = epoch
        if resume_open is not None:
            # A fresh leadership term: recovery attempts of the previous
            # term were aborted, so rebuild the in-flight bookkeeping.
            self.reset_in_flight()
        self._process = self.sim.process(
            self._monitor_loop(resume_open=resume_open), name=self.name)

    def reset_in_flight(self) -> None:
        """Forget in-flight recovery bookkeeping.

        A deposed ensemble member's running attempt was aborted; its
        successor re-detects and re-drives, so stale entries here must
        not leak into ``recovering_positions`` unions.
        """
        self._recovering_positions.clear()
        self._open_events = []
        self._recovery_driver = None
        self._recovery_inner = None

    def stop(self) -> None:
        self._stopping = True
        # stop() can re-enter from inside one of these very processes
        # (a fenced command deposes the leader, which stops its
        # orchestrator); the active process exits on its own and must
        # not be interrupted mid-stack.
        active = self.sim.active_process
        for process in ((self._process, self._recovery_inner,
                         self._recovery_driver)
                        + tuple(self._reconfig_procs)):
            if process is None or not process.is_alive:
                continue
            if process is active:
                # Deliver the interrupt at its next yield instead --
                # the wrapper below absorbs it once _stopping is set.
                self.sim.schedule_callback(
                    0.0, lambda p=process: (p.interrupt("stopped")
                                            if p.is_alive else None))
            else:
                process.interrupt("stopped")
        self._process = None
        self._nap = None

    # -- introspection (chaos / tests) -------------------------------------------------

    @property
    def recovering_positions(self) -> Set[int]:
        """Positions a recovery attempt currently covers."""
        return set(self._recovering_positions)

    @property
    def lost_positions(self) -> Set[int]:
        """Positions abandoned to degraded mode (>f group members gone)."""
        return set(self._lost_positions)

    def _on_route_changed(self, position: int, old_name: str,
                          new_name: str) -> None:
        """A new instance serves ``position``: reset its health state."""
        self._misses[position] = 0
        self._last_seen_alive[position] = self.sim.now

    # -- orchestrator-to-region latency -----------------------------------------------

    def control_rtt_to(self, position: int) -> float:
        """RTT from the orchestrator to a chain position's region."""
        net = self.chain.net
        server = self.chain.route[position]
        if self.region is not None and hasattr(net, "region_rtt"):
            return net.region_rtt(self.region, net.region_of(server))
        return net.control_rtt(server, server) or 2 * net.hop_delay_s

    def init_delay_for(self, positions: List[int]) -> float:
        """Fig 13's initialization delay: command RTT + instance spawn.

        With several positions recovering, spawns run in parallel; the
        farthest region dominates.
        """
        return max(self.control_rtt_to(p) for p in positions) + SPAWN_TIME_S

    # -- monitoring ----------------------------------------------------------------------

    def _probe_src(self, position: int) -> str:
        """Where probes originate: the ensemble member's server, if any."""
        return self.home or self.chain.route[position]

    def _probe(self, position: int, policy: RetryPolicy,
               src: Optional[str] = None):
        """Generator: one aliveness probe, an RPC only an alive replica answers.

        Returns whether it answered; an answer resets the position's
        misses and refreshes its last-seen time.
        """
        server = self.chain.server_at(position)
        result = yield from reliable_call(
            self.chain.net, src or self._probe_src(position),
            self.chain.route[position], lambda: not server.failed,
            policy=policy, payload_bytes=64, response_bytes=64)
        self.control_retries += result.retries
        alive = result.ok and result.value
        if alive:
            self._misses[position] = 0
            self._last_seen_alive[position] = self.sim.now
        return alive

    def _ping(self, position: int):
        """One heartbeat: a quick probe whose silence counts as a miss."""
        self.heartbeats_sent += 1
        if (yield from self._probe(position, self.heartbeat_retry)):
            return
        self._misses[position] = self._misses.get(position, 0) + 1
        if self._misses[position] == 1:
            self.telemetry.emit("orch", "suspected", [position],
                                t=self.sim.now, epoch=self.epoch,
                                detail="heartbeat missed")

    def _witness_for(self, position: int,
                     batch: Sequence[int] = ()) -> Optional[int]:
        """The nearest alive position to probe a suspect from.

        ``batch`` carries the round's other suspects: a co-suspect has
        by definition just missed its own heartbeats, so routing the
        second opinion through it would corroborate nothing.
        """
        skip = (self._recovering_positions | self._lost_positions |
                set(batch) | {position})
        candidates = [p for p in range(self.chain.n_positions)
                      if p not in skip and not self.chain.server_at(p).failed]
        if not candidates:
            return None
        return min(candidates, key=lambda p: (abs(p - position), p))

    def _corroborate(self, suspects: List[int]):
        """Probe each suspect from a witness; return the confirmed dead.

        Heartbeat misses alone cannot distinguish a dead replica from a
        path eating packets; a second opinion over a different source
        path with the patient (backed-off) recovery policy can.  A
        suspect that answers is cleared -- its misses reset -- and no
        failover happens.  With no alive witness left the probe falls
        back to the suspect's own control path (a *self-probe*): still
        worth the retry budget, but recorded and counted separately
        because it exercises the very path that went silent.
        """
        confirmed: List[int] = []
        for position in suspects:
            witness = self._witness_for(position, batch=suspects)
            src = (self.chain.route[witness] if witness is not None
                   else self._probe_src(position))
            if (yield from self._probe(position, self.recovery_retry, src)):
                self.suspects_cleared += 1
                if witness is None:
                    self.suspects_cleared_self += 1
                via = (f"witness p{witness}" if witness is not None
                       else f"self-probe via {src}")
                self.telemetry.emit("orch", "suspect-cleared", [position],
                                    t=self.sim.now, epoch=self.epoch,
                                    detail=via)
            else:
                confirmed.append(position)
                by = "self" if witness is None else f"p{witness}"
                self.telemetry.emit("orch", "corroborated", [position],
                                    t=self.sim.now, epoch=self.epoch,
                                    detail=f"witness {by} confirmed silence")
        return confirmed

    def _monitor_loop(self, resume_open: Optional[Set[int]] = None):
        for position in range(self.chain.n_positions):
            self._misses[position] = 0
            self._last_seen_alive[position] = self.sim.now
        self._reported = {}
        try:
            if resume_open is not None:
                yield from self._resume_probe(resume_open)
            # Rounds sit on a fixed grid: probing spends part of the
            # interval instead of lengthening it.  After an overrun the
            # next round starts at once and the grid re-anchors there --
            # rounds never overlap and never burst to catch up.  A
            # silence report is handled like an overrun.
            tick = self.sim.now
            while True:
                tick = max(tick + self.heartbeat_interval_s, self.sim.now)
                if self._reported:
                    tick = self.sim.now   # a report is waiting: go now
                else:
                    self._nap = self.sim.timeout(tick - self.sim.now)
                    try:
                        yield self._nap
                    except Interrupt as wake:
                        if wake.cause != _WAKE:
                            raise
                        tick = self.sim.now
                    self._nap = None
                skip = self._recovering_positions | self._lost_positions
                active = [position for position in range(self.chain.n_positions)
                          if position not in skip]
                pings = [self.sim.process(self._ping(position))
                         for position in active]
                for ping in pings:
                    yield ping
                # A reported position that missed this whole round is
                # declared at once: the report stands in for the earlier
                # silent rounds.  One that answered after its report is
                # cleared; one that answered before it is judged by the
                # next round, which starts at once.
                reported = self._reported
                self._reported = {
                    position: at for position, at in reported.items()
                    if position in active and not self._misses.get(position)
                    and self._last_seen_alive[position] < at}
                failed = [position for position in active
                          if (self._misses.get(position, 0) > self.misses_allowed
                              or (position in reported
                                  and self._misses.get(position, 0)))
                          and position not in self._recovering_positions]
                if failed and self.corroborate_suspects:
                    failed = yield from self._corroborate(failed)
                if failed:
                    yield from self._declare_failed(failed)
        except StaleEpochError as exc:
            self._leadership_lost(exc)
            return
        except (Interrupt, CancelledError):
            return

    def _on_hop_silent(self, src: int, dst: int) -> None:
        """Chain observer: the hop ``src -> dst`` heard no ACK for an RTO.

        The upstream position's server sends a one-way report to this
        orchestrator's home over the control plane, so impairment and
        partitions apply.  Only a monitoring orchestrator (the leader of
        an ensemble) is told.
        """
        if self._process is None:
            return
        chain = self.chain
        suspect = chain.route[dst]
        chain.net.control_call(
            chain.route[src], self.home or chain.route[src],
            lambda: self._on_silence_report(dst, suspect),
            payload_bytes=64, response_bytes=0)

    def _on_silence_report(self, position: int, suspect: str) -> None:
        """A report arrived: probe ``position`` in a round starting now.

        Ignored by non-leaders, for positions already recovering or
        lost, and for an instance the route no longer holds.
        """
        if (self._process is None or self._stopping
                or position in self._recovering_positions
                or position in self._lost_positions
                or self.chain.route[position] != suspect):
            return
        self.silence_reports += 1
        self._reported[position] = self.sim.now
        self.telemetry.emit("orch", "silence-report", [position],
                            t=self.sim.now, epoch=self.epoch,
                            detail="upstream hop silent")
        nap, self._nap = self._nap, None
        if nap is not None:   # asleep between rounds: wake it
            nap.cancel()
            self._process.interrupt(_WAKE)

    def _resume_probe(self, open_positions: Set[int]):
        """New-leader takeover: rebuild monitor state authoritatively.

        One patient probe round over every non-lost position decides
        who is actually dead *now*; journal-open positions that answer
        were already recovered by the previous leader (its re-steer
        committed before it died) and are simply adopted.  The dead are
        declared immediately -- with this leader's epoch -- which
        resumes any in-flight recovery idempotently.
        """
        active = [p for p in range(self.chain.n_positions)
                  if p not in self._lost_positions]
        probes = [self.sim.process(self._probe_once(p)) for p in active]
        for probe in probes:
            yield probe
        dead = [p for p in active if self._misses.get(p, 0) > 0]
        for position in sorted(open_positions):
            detail = "already recovered"
            if position in dead:
                self.resumed_positions += 1
                detail = "resuming in-flight recovery"
            self.telemetry.emit("orch", "journal-replayed", [position],
                                t=self.sim.now, epoch=self.epoch,
                                detail=detail)
        if dead:
            yield from self._declare_failed(dead)

    def _probe_once(self, position: int):
        """One patient probe; silence marks the position dead outright."""
        if not (yield from self._probe(position, self.recovery_retry)):
            self._misses[position] = self.misses_allowed + 1

    def _leadership_lost(self, exc: Exception) -> None:
        """A command was fenced: this orchestrator is a stale leader."""
        self._stopping = True
        if self.on_leadership_lost is not None:
            self.on_leadership_lost(exc)

    # -- recovery coordination ---------------------------------------------------------

    def _declare_failed(self, positions: List[int]):
        """Open a failure event and (re-)drive recovery for the union.

        A generator: the declaration goes through the command guard
        first (raising :class:`StaleEpochError` if leadership was lost).
        """
        yield from self._command("declare-failed", positions)
        detection_delay = max(
            self.sim.now - self._last_seen_alive[p] for p in positions)
        event = FailureEvent(positions=list(positions),
                             detected_at=self.sim.now,
                             detection_delay_s=detection_delay)
        self.failures_detected += 1
        self.telemetry.emit(
            "orch", "confirmed", positions, t=self.sim.now, epoch=self.epoch,
            value=detection_delay,
            detail=f"detection delay {detection_delay * 1e3:.3f}ms")
        self.history.append(event)
        self._open_events.append(event)
        self._recovering_positions |= set(positions)
        for proc in list(self._reconfig_procs):
            # §11: recovery preempts reconfiguration.  An operation
            # racing a confirmed failure aborts (closing its journal
            # with reconfig-abort); the operator re-requests it once
            # the chain is whole again.
            if proc.is_alive and proc is not self.sim.active_process:
                proc.interrupt(f"failures declared {positions}")
        if self._recovery_inner is not None and self._recovery_inner.is_alive:
            # §5.2: a failure during recovery aborts the running attempt;
            # the driver re-enters with the union of failed positions.
            self._recovery_inner.interrupt(f"additional failures {positions}")
        if self._recovery_driver is None or not self._recovery_driver.is_alive:
            self._recovery_driver = self.sim.process(
                self._recover_loop(), name=f"{self.name}/recovery")

    def _fire_recovery_hooks(self, phase: str, positions: List[int]) -> None:
        for hook in list(self.recovery_hooks):
            hook(phase, positions)

    def _recover_loop(self):
        attempts = 0
        try:
            while self._recovering_positions and not self._stopping:
                positions = sorted(self._recovering_positions)
                attempts += 1
                for event in self._open_events:
                    event.recovery_attempts += 1
                inner = self.sim.process(self._attempt(positions))
                self._recovery_inner = inner
                try:
                    report = yield inner
                except Interrupt:
                    if self._stopping:
                        return
                    continue  # union changed; re-enter immediately
                except UnrecoverableError as exc:
                    # Some suspects may be false positives (heartbeats
                    # lost to an impaired control plane): re-probe with
                    # the more patient recovery policy before giving up.
                    cleared = yield from self._reprobe_suspects()
                    if cleared:
                        if self._recovering_positions:
                            continue
                        for event in self._open_events:
                            event.error = "false suspicion cleared by re-probe"
                        self._open_events = []
                        return
                    yield from self._abandon(positions, exc)
                    return
                except RecoveryError as exc:
                    if attempts >= MAX_RECOVERY_ATTEMPTS:
                        yield from self._abandon(positions, exc)
                        return
                    # A source died (or the control plane is impaired)
                    # mid-fetch; give the next heartbeat round a chance
                    # to spot new corpses, then re-enter.
                    yield self.sim.timeout(self.heartbeat_interval_s)
                    continue
                yield from self._command("committed", positions)
                self.control_retries += report.control_retries
                for position in positions:
                    self._misses[position] = 0
                    self._last_seen_alive[position] = self.sim.now
                self._recovering_positions -= set(positions)
                self.recoveries += 1
                self.telemetry.emit("orch", "recovered", t=self.sim.now,
                                    value=report.total_s)
                for phase in ("initialization", "state_recovery", "rerouting"):
                    self.telemetry.emit("orch", "phase", t=self.sim.now,
                                        phase=phase,
                                        value=getattr(report, f"{phase}_s"))
                if not self._recovering_positions:
                    for event in self._open_events:
                        event.report = report
                    self._open_events = []
        except StaleEpochError as exc:
            # A newer leader took over: a step of this loop or of the
            # attempt (which already unwound: thaw + release) was fenced.
            self._leadership_lost(exc)
        except (Interrupt, CancelledError):
            return
        finally:
            self._recovery_inner = None
            self._recovery_driver = None
            self._wake_reconfig()

    def _attempt(self, positions: List[int]):
        """One recovery attempt, orphan-safe.

        Teardown can start from *inside* this very process (a chaos
        hook crashes the leader, which deposes it, which calls
        ``stop()`` while this attempt is the active process).  The
        driver is then already dead, so any exception escaping here
        would hit the simulator undefused; once ``_stopping`` is set,
        absorb the unwind -- ``recover_positions``'s own finally has
        already thawed the chain and released the attempt.
        """
        try:
            return (yield from recover_positions(
                self.chain, positions,
                init_delay_s=self.init_delay_for(positions),
                reroute_delay_s=REROUTE_DELAY_S,
                retry_policy=self.recovery_retry,
                hooks=self._fire_recovery_hooks,
                epoch=self.epoch, journal=self._command))
        except (StaleEpochError, Interrupt, CancelledError):
            if self._stopping:
                return None
            raise

    def _command(self, step: str, positions, detail: str = ""):
        """The command guard: every journaled step goes through here.

        A generator, run before the command's side effect.  Under an
        ensemble it runs the member's ``journal_step`` -- write-ahead
        to a quorum, then the epoch fence -- and raises
        :class:`StaleEpochError` when this leader has been fenced;
        unreplicated, it returns without yielding.
        """
        if self.command_guard is not None:
            yield from self.command_guard(step, positions, detail)

    # -- live reconfiguration (PROTOCOL.md §11) ----------------------------------------

    def request_reconfig(self, op: ReconfigOp, resumed: bool = False):
        """Drive one reconfiguration asynchronously; returns the process.

        The operation waits for any in-flight recovery to finish (and
        for earlier operations to commit -- requests serialize in
        request order, each starting the instant the orchestrator goes
        idle), then runs :func:`~repro.core.reconfig.apply_reconfig`
        under this orchestrator's epoch/journal.  The outcome is
        appended to ``reconfig_history``.
        """
        proc = self.sim.process(
            self._drive_reconfig(op, resumed=resumed),
            name=f"{self.name}/reconfig-{op.kind}")
        self._reconfig_procs[proc] = None
        return proc

    def resume_reconfigs(self, open_map: Dict) -> None:
        """Re-drive reconfigurations the journal shows as uncovered.

        ``open_map`` is the second half of
        :meth:`CommandJournal.open_commands`:
        positions-tuple -> the prepare's ``detail`` descriptor.  Ops
        the descriptor can rebuild are re-run from scratch (prepare is
        idempotent: it spawns fresh resources each time); the rest --
        inserts and classifier updates, whose live objects a journal
        cannot carry -- are closed with a journaled ``reconfig-abort``
        so no entry dangles forever.
        """
        for positions, detail in sorted(open_map.items()):
            op = ReconfigOp.parse(detail)
            replay = ("resuming" if op is not None
                      else "closing unresumable")
            self.telemetry.emit("orch", "journal-replayed", positions,
                                t=self.sim.now, epoch=self.epoch,
                                detail=f"{replay} reconfiguration: {detail}")
            if op is not None:
                self.request_reconfig(op, resumed=True)
            else:
                self.sim.process(
                    self._close_unresumable(list(positions), detail),
                    name=f"{self.name}/reconfig-close")

    def _close_unresumable(self, positions: List[int], detail: str):
        try:
            yield from self._abort_reconfig(
                f"closed open reconfiguration: {detail}",
                entry=(positions, detail))
        except StaleEpochError as exc:
            self._leadership_lost(exc)

    def _abort_reconfig(self, why: str, op: Optional[ReconfigOp] = None,
                        resumed: bool = True, entry=None):
        """The one ``reconfig-abort`` writer; records the aborted report.

        A generator: closes ``op``'s journal entry (or a bare
        ``(positions, detail)`` one) so no successor tries to resume it.
        A fenced close still records the abort -- the operation did
        unwind -- and then lets the fence propagate.
        """
        positions, detail = entry or (list(op.journal_positions()),
                                      op.describe())
        report = ReconfigReport(op=op, aborted=True, resumed=resumed,
                                detail=why)
        try:
            yield from self._command("reconfig-abort", positions, detail)
        except StaleEpochError:
            self.reconfig_history.append(report)
            raise
        self.reconfig_history.append(report)

    def _wake_reconfig(self) -> None:
        """Hand an idle orchestrator to the longest-waiting request."""
        if (self._reconfig_waiters and not self._reconfig_active
                and not self._recovering_positions):
            self._reconfig_active = True
            self._reconfig_waiters.popleft().succeed()

    def _reconfig_turn(self):
        """Take the orchestrator, queueing in request order while busy."""
        if not (self._recovering_positions or self._reconfig_active
                or self._reconfig_waiters):
            self._reconfig_active = True
            return
        turn = self.sim.event()
        self._reconfig_waiters.append(turn)
        try:
            yield turn  # _wake_reconfig took the orchestrator for us
        except BaseException:  # preempted in line (recovery, stop)
            if turn.triggered:
                self._reconfig_active = False
                self._wake_reconfig()
            else:
                self._reconfig_waiters.remove(turn)
            raise

    def _drive_reconfig(self, op: ReconfigOp, resumed: bool = False):
        acquired = False
        try:
            try:
                yield from self._reconfig_turn()
                acquired = True
                try:
                    report = yield from apply_reconfig(
                        self.chain, op, epoch=self.epoch,
                        journal=self._command, hooks=self.reconfig_hooks,
                        reroute_delay_s=REROUTE_DELAY_S, resumed=resumed)
                except (ReconfigError, StaleConfigError) as exc:
                    # The op unwound (holds flushing, state thawed); close
                    # its journal so no successor tries to resume it.
                    yield from self._abort_reconfig(str(exc), op, resumed)
                    return
                self.reconfig_history.append(report)
            except (Interrupt, CancelledError):
                if not self._stopping:
                    # Preempted by recovery (or chaos): the apply's finally
                    # block aborted it; close the journal entry.
                    yield from self._abort_reconfig("interrupted", op,
                                                    resumed)
        except StaleEpochError as exc:
            self._leadership_lost(exc)
        finally:
            if acquired:
                self._reconfig_active = False
                self._wake_reconfig()
            self._reconfig_procs.pop(self.sim.active_process, None)

    def _reprobe_suspects(self):
        """Re-probe every suspected position; un-suspect the live ones.

        Returns True if any suspect answered (it was a false positive;
        recovery can re-enter with a smaller, possibly empty, set).
        """
        cleared = False
        for position in sorted(self._recovering_positions):
            if (yield from self._probe(position, self.recovery_retry)):
                self._recovering_positions.discard(position)
                cleared = True
        return cleared

    def _abandon(self, positions: List[int], exc: Exception):
        """Degrade gracefully: >f members of some group are gone.

        A generator: the step goes through the command guard first.
        """
        yield from self._command("abandoned", positions)
        self.abandoned += 1
        self.telemetry.emit("recovery", "abandoned", positions,
                            t=self.sim.now, epoch=self.epoch, detail=str(exc))
        self.telemetry.flight.trip(f"unrecoverable: {exc}",
                                   telemetry=self.telemetry, t=self.sim.now)
        self.chain.degraded = True
        self.chain.degraded_reason = str(exc)
        for event in self._open_events:
            event.error = str(exc)
        self._open_events = []
        self._lost_positions |= set(positions)
        self._recovering_positions.clear()
