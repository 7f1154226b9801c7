"""Failure recovery (§4.1, §5.2).

Recovery of a failed replica runs in three steps: initialization
(spawning a new replica at the failure position), state recovery
(fetching each replication group's state from an alive member), and
rerouting (steering traffic through the new replica).

Source selection follows the log propagation invariant: a failed
*head* recovers from its immediate successor (the successor's state is
the same or prior, and everything released went through it); any other
member recovers from its immediate predecessor.  With multiple
failures the walk continues to the nearest alive member, and the
orchestrator performs a single rerouting only after every new replica
has confirmed recovery.

The procedure is exception-safe and abortable: frozen source states
are always thawed, half-spawned replicas are released, and state
fetches ride the control-plane retry policy so a lost message costs a
timeout, not a hang.  A source that dies *mid-fetch* surfaces as
:class:`RecoveryError` -- the orchestrator re-enters with the union of
failed positions (§5.2), at which point the source walk skips the new
corpse.  Phase hooks let the chaos subsystem (`repro.chaos`) inject
failures at precisely the nastiest instants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..net.retry import DEFAULT_RETRY_POLICY, RetryPolicy, reliable_call
from ..sim import AllOf, CancelledError, Interrupt
from .chain import FTCChain
from .replica import Replica

__all__ = ["RecoveryReport", "recover_positions", "RecoveryError",
           "UnrecoverableError", "RECOVERY_PHASES"]

#: Phase-hook names, in firing order.
RECOVERY_PHASES = ("initializing", "spawned", "fetching", "fetched",
                   "rerouting", "committed")

#: Optional observer called as ``hooks(phase, positions)`` at each phase.
RecoveryHooks = Callable[[str, List[int]], None]


class UnrecoverableError(Exception):
    """More than f members of some replication group are gone."""


class RecoveryError(Exception):
    """A recovery attempt failed mid-flight (e.g. a fetch source died
    after source selection).  The chain is untouched -- the caller may
    re-enter ``recover_positions`` with an updated failed set."""


@dataclass
class RecoveryReport:
    """Timing breakdown of one recovery operation (Fig 13's metrics)."""

    positions: List[int]
    initialization_s: float = 0.0
    state_recovery_s: float = 0.0
    rerouting_s: float = 0.0
    bytes_transferred: int = 0
    fetches: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Control-plane retries performed by the state fetches.
    control_retries: int = 0

    @property
    def total_s(self) -> float:
        return self.initialization_s + self.state_recovery_s + self.rerouting_s


def _alive_source(chain: FTCChain, mbox_index: int, position: int,
                  failed: set) -> Optional[int]:
    """Pick the recovery source position for one replication group."""
    group = chain.group_positions(mbox_index)
    where = group.index(position)
    if where == 0:
        # Failed head: walk successors (closest first).
        candidates = group[1:]
    else:
        # Failed middle/tail: walk predecessors back toward the head.
        candidates = list(reversed(group[:where])) + group[where + 1:]
    for candidate in candidates:
        if candidate not in failed and not chain.server_at(candidate).failed:
            return candidate
    return None


def recover_positions(chain: FTCChain, positions: List[int],
                      init_delay_s: float = 1e-3,
                      reroute_delay_s: float = 0.5e-3,
                      retry_policy: Optional[RetryPolicy] = None,
                      hooks: Optional[RecoveryHooks] = None,
                      epoch: Optional[int] = None,
                      journal: Optional[Callable] = None):
    """Generator (run as a sim process): §5.2 recovery.

    Returns a :class:`RecoveryReport`.  ``init_delay_s`` models the
    orchestrator-to-region latency of spawning instances (Fig 13's
    initialization delay); ``reroute_delay_s`` the flow-rule update.

    Raises :class:`UnrecoverableError` when some replication group has
    no alive member left, and :class:`RecoveryError` when a state fetch
    exhausts its retries.  On any exit before the rerouting commit --
    exception or interrupt -- frozen sources are thawed and the
    half-spawned replicas are released, leaving the chain exactly as it
    was.

    ``journal`` is the orchestrator's command guard (PROTOCOL.md §9.3),
    a generator ``(step, positions)`` run -- write-ahead, before the side
    effect -- at the ``spawn`` and ``re-steer`` steps; under a
    replicated control plane it journals the command to a quorum and
    fences it by ``epoch``.  A :class:`~repro.core.fencing.StaleEpochError`
    it raises aborts the attempt through the same exception-safe unwind,
    and the chain's :class:`~repro.core.fencing.EpochGate` records each
    committed re-steer so double recovery is auditable.  Both default
    to ``None``: a direct caller journals nothing and pays nothing.
    """
    sim = chain.sim
    gate = chain.gate
    policy = retry_policy or DEFAULT_RETRY_POLICY
    rng = chain.streams.stream("recovery-backoff")
    report = RecoveryReport(positions=list(positions))
    failed = set(positions)
    started = sim.now
    telemetry = chain.telemetry
    journal = journal or (lambda *command: iter(()))  # unreplicated: no-op

    def phase(name: str) -> None:
        # The boundary is on the timeline (and the flight ring) before
        # any hook runs, so a hook's own events follow it.
        telemetry.emit("recovery", name, positions, t=sim.now, epoch=epoch)
        if hooks is not None:
            hooks(name, list(positions))

    frozen: List = []
    fetch_procs: List = []
    new_replicas: Dict[int, Replica] = {}
    committed = False
    try:
        # -- step 1: initialization ----------------------------------------------
        phase("initializing")
        yield sim.timeout(init_delay_s)

        # Write-ahead: the spawn command reaches a quorum (and the epoch
        # fence) before any instance exists.
        yield from journal("spawn", list(positions))
        for position in positions:
            # Sized like the instance it replaces, which a rescale may
            # have given other than the chain's default thread count.
            server = chain._new_server(
                position, len(chain.server_at(position).nic.queues))
            new_replicas[position] = Replica(chain, position, server)
        # Measured at the `spawned` boundary so it covers the journal
        # round trip too: the timeline's initialization span (spawned -
        # initializing) and this figure must agree exactly, and under a
        # replicated control plane the write-ahead quorum *is* part of
        # the initialization critical path.
        report.initialization_s = sim.now - started
        phase("spawned")

        # -- step 2: state recovery (parallel fetches per group) ---------------------
        # Plan all sources first so an unrecoverable group surfaces
        # before anything is frozen or transferred.
        plans: List[Tuple[int, str, int]] = []
        for position in positions:
            for mbox_index, mbox_name in chain.member_mboxes(position):
                source_pos = _alive_source(chain, mbox_index, position, failed)
                if source_pos is None:
                    raise UnrecoverableError(
                        f"no alive replica left for middlebox {mbox_name!r}")
                plans.append((position, mbox_name, source_pos))

        fetch_started = sim.now
        for position, mbox_name, source_pos in plans:
            replica = new_replicas[position]
            source_state = chain.replica_at(source_pos).states[mbox_name]
            source_state.freeze()
            frozen.append(source_state)

            size = source_state.export_bytes(chain.costs)
            report.bytes_transferred += size
            report.fetches.append((mbox_name, source_pos, size))
            telemetry.emit("recovery", "fetch-source", positions, t=sim.now,
                           epoch=epoch, detail=f"{mbox_name} for p{position} "
                                               f"from p{source_pos} {size}B")

            def fetch_one(source_state=source_state, replica=replica,
                          mbox_name=mbox_name, size=size,
                          source_pos=source_pos):
                # §6: the control module opens a reliable TCP connection
                # per replication group, sends a fetch request, and
                # waits for the state -- a connect round trip plus a
                # request/response round trip, each under the retry
                # policy so a lost message or a dead source costs
                # bounded time.
                try:
                    connect = yield from reliable_call(
                        chain.net, replica.server.name,
                        chain.route[source_pos], lambda: True,
                        policy=policy, payload_bytes=64, response_bytes=64,
                        rng=rng)
                    report.control_retries += connect.retries
                    if not connect.ok:
                        raise RecoveryError(
                            f"connect to {mbox_name!r} source at position "
                            f"{source_pos} timed out")
                    response = yield from reliable_call(
                        chain.net, replica.server.name,
                        chain.route[source_pos], source_state.export_state,
                        policy=policy, payload_bytes=64,
                        response_bytes=max(size, 64), rng=rng)
                    report.control_retries += response.retries
                    if not response.ok:
                        raise RecoveryError(
                            f"state fetch of {mbox_name!r} from position "
                            f"{source_pos} timed out")
                    replica.install_state(mbox_name, response.value)
                except (Interrupt, CancelledError):
                    return  # recovery aborted; the next attempt refetches

            fetch_procs.append(sim.process(fetch_one()))

        phase("fetching")
        yield AllOf(sim, fetch_procs)
        report.state_recovery_s = sim.now - fetch_started
        phase("fetched")

        # -- step 3: rerouting (single update after all confirmations, §5.2) ---------
        reroute_started = sim.now
        phase("rerouting")
        # Write-ahead: journal the re-steer *before* the route mutates,
        # so a leader that dies inside the commit loop leaves a journal
        # a successor can resume from.
        yield from journal("re-steer", list(positions))
        yield sim.timeout(reroute_delay_s)
        if gate is not None:
            # Chain-side fencing, applied atomically before any route
            # mutation: a stale epoch unwinds the whole attempt (thaw +
            # release) instead of half-committing.  Each record names
            # the exact instance replaced, making double recovery (two
            # epochs both re-steering one server) auditable.
            for position in positions:
                gate.apply(epoch, "re-steer", [position],
                           detail=f"replace {chain.route[position]} with "
                                  f"{new_replicas[position].server.name}")
        committed = True
        for position in positions:
            # Fence the old instance: a falsely-suspected (still alive)
            # server must stop processing before traffic moves, or its
            # workers would keep mutating state outside the group.
            if not chain.server_at(position).failed:
                chain.fail_position(position)
            old_name = chain.install(position, new_replicas[position])
            # Publish the re-steer: observers (the orchestrator's
            # monitored set) refresh, and any reconfiguration hold a
            # crash orphaned on this position flushes.
            chain.note_route_change(position, old_name, chain.route[position])
        report.rerouting_s = sim.now - reroute_started
        phase("committed")
        return report
    finally:
        # Always thaw sources -- a fetch failure or an abort must not
        # leave them frozen forever (they stop applying logs entirely).
        for state in frozen:
            state.thaw()
        if not committed:
            for proc in fetch_procs:
                if proc.is_alive:
                    proc.interrupt("recovery aborted")
            for replica in new_replicas.values():
                replica.server.fail()  # release the half-spawned instance
