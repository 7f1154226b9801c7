"""FTC chain assembly (§5).

:class:`FTCChain` wires everything together: one server + replica per
chain position, the forwarder on the first server, the buffer on the
last, the 10 GbE feedback path between them, and the replication-group
layout over the logical ring.  It also carries the failure/recovery
hooks the orchestrator drives.

If the chain is shorter than f+1 middleboxes, extension positions with
no middlebox are added before the buffer, exactly as §5.1 prescribes --
this is also how the single-middlebox protocol of §4 deploys (one
middlebox + f pure replicas).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..middlebox.base import Middlebox
from ..net.channel import DATA_RETRY_POLICY, ReliableChannel
from ..net.packet import Packet
from ..net.retry import call_with_deadline
from ..net.topology import Network
from ..sim import RandomStreams, RateLimiter, Simulator
from ..telemetry import NULL_TELEMETRY
from .buffer import Buffer
from .costs import CostModel, DEFAULT_COSTS
from .fencing import StaleConfigError
from .forwarder import Forwarder
from .replica import Replica

__all__ = ["FTCChain"]

#: Give up on a control RPC to a (possibly dead) peer after this long.
CONTROL_TIMEOUT_S = 2e-3

#: ``ReliableChannel.stats()`` keys that are peaks or levels: a retired
#: channel's are dropped, its counters folded into ``channel_stats()``.
_CHANNEL_LEVELS = ("ooo_held_peak", "txq_peak", "inflight", "queued")


class FTCChain:
    """A deployed fault-tolerant service function chain."""

    def __init__(self, sim: Simulator, middleboxes: Sequence[Middlebox],
                 f: int = 1, deliver: Callable[[Packet], None] = lambda p: None,
                 costs: CostModel = DEFAULT_COSTS,
                 net: Optional[Network] = None, n_threads: int = 8,
                 seed: int = 0, use_htm: bool = False, name: str = "ftc",
                 telemetry=None, reliable_links: bool = False,
                 admission=None):
        if not middleboxes:
            raise ValueError("a chain needs at least one middlebox")
        if f < 0:
            raise ValueError("f must be non-negative")
        names = [m.name for m in middleboxes]
        if len(set(names)) != len(names):
            raise ValueError("middlebox names must be unique within a chain")
        self.sim = sim
        self.middleboxes = list(middleboxes)
        self.f = f
        self.costs = costs
        self.n_threads = n_threads
        self.name = name
        self.use_htm = use_htm
        self.streams = RandomStreams(seed)
        self.deliver = deliver
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

        self.n_mboxes = len(middleboxes)
        #: §5.1: extend short chains with pure replicas before the buffer.
        self.n_positions = max(self.n_mboxes, f + 1)

        self.net = net or Network(sim, hop_delay_s=costs.hop_delay_s,
                                  bandwidth_bps=costs.bandwidth_bps)
        if self.telemetry.enabled and getattr(self.net, "telemetry",
                                              NULL_TELEMETRY) is NULL_TELEMETRY:
            self.net.telemetry = self.telemetry
        #: Optional region per position (multi-region deployments);
        #: respawned replicas land in the failed position's region.
        self.region_plan: Optional[List[str]] = None
        self.route: List[str] = []
        self._generation = 0
        for position in range(self.n_positions):
            server = self._new_server(position)
            self.route.append(server.name)
        for position in range(self.n_positions - 1):
            self.net.connect(self.route[position], self.route[position + 1])

        self.forwarder = Forwarder(
            sim, inject=self._inject_propagating,
            costs=costs, name=f"{name}/forwarder",
            telemetry=self.telemetry)
        self._feedback_serializer = RateLimiter(
            sim, rate=1e12,
            cost_fn=lambda pkt: pkt.wire_size * 8.0 / costs.feedback_bandwidth_bps,
            name=f"{name}/feedback-link")
        self.buffer = Buffer(sim, deliver=self._deliver,
                             send_feedback=self._send_feedback,
                             costs=costs, name=f"{name}/buffer",
                             telemetry=self.telemetry)

        self.replicas: List[Replica] = [
            Replica(self, position, self.server_at(position))
            for position in range(self.n_positions)
        ]
        #: PROTOCOL.md §8: wrap each inter-position hop in a
        #: :class:`ReliableChannel` (sequencing + NACK/timeout
        #: retransmission) so the chain survives data-plane impairment.
        #: Off by default -- the disabled path adds no events and no
        #: wire bytes, keeping unimpaired runs bit-identical.
        self.reliable_links = reliable_links
        self._channels: Dict[Tuple[int, int], ReliableChannel] = {}
        self._retired_channel_stats: Dict[str, int] = {}
        self.packets_in = 0
        self.feedback_lost = 0
        self.buffer_packets_lost = 0
        #: Set when >f members of some replication group are gone and
        #: recovery gave up: the chain keeps running (meters keep
        #: reporting) but state of the affected group(s) is lost.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        #: Epoch fence installed by a replicated orchestrator ensemble
        #: (PROTOCOL.md §9).  ``None`` -- the default -- means commands
        #: are unfenced; single-orchestrator runs allocate nothing.
        self.gate = None
        #: Live-reconfiguration state (PROTOCOL.md §11).  Every default
        #: is inert: an unreconfigured chain takes none of these paths
        #: and stays bit-identical with pre-§11 builds.
        self.config_version = 0
        self.classifier = None
        self.classifier_drops = 0
        self._stamp_config = False
        self._holds: Dict[int, object] = {}
        self._switching: set = set()
        self._reconfig_seq = 0
        #: ``reconfig/*`` counts, filled by the first operation.
        self.reconfig_counts: Dict[str, int] = {}
        #: Callables ``(position, old_name, new_name)`` fired on every
        #: route mutation (recovery re-steer or reconfig switch); the
        #: orchestrator registers one to refresh its monitored set.
        self.route_observers: List[Callable[[int, str, str], None]] = []
        #: Callables ``(src, dst)`` fired when the reliable hop from
        #: position ``src`` hears nothing from position ``dst`` for an
        #: RTO under traffic; the orchestrator registers one and probes
        #: ``dst`` at once (PROTOCOL.md §4).
        self.silence_observers: List[Callable[[int, int], None]] = []
        #: Egress count at the instant each middlebox was inserted live
        #: (auditors account per-middlebox packet counts from there).
        self.mbox_release_baseline: Dict[str, int] = {}
        #: Audited drop sites (PROTOCOL.md §12.2).
        self.telemetry.registry.counter("drops/classifier",
                                        lambda: self.classifier_drops)
        #: Propagating packets the NIC queue refused; their piggyback
        #: state is re-absorbed by the forwarder and retried -- never
        #: dropped (the replication invariant does not bend under load).
        self.propagating_requeued = 0
        #: Overload protection (PROTOCOL.md §12): inert by default.
        #: When an :class:`~repro.core.admission.AdmissionControl` is
        #: passed, ingress gates data packets through it and every
        #: bounded queue registers on its backpressure bus.
        self.admission = admission
        if admission is not None:
            self._wire_backpressure()

    def _wire_backpressure(self) -> None:
        """Register every bounded queue on the admission bus."""
        bus = self.admission.bus
        if bus is None:
            return
        for position in range(self.n_positions):
            bus.add(f"nic-p{position}",
                    (lambda p=position: self.server_at(p).nic.depth()),
                    bound=self.n_threads * self.costs.nic_queue_depth)
        bus.add("buffer-held", lambda: len(self.buffer.held),
                bound=lambda: self.buffer.max_held)

    # -- construction helpers ------------------------------------------------

    def _new_server(self, position: int, n_threads: Optional[int] = None):
        """A server for ``position``: ``n_threads`` cores and NIC queues."""
        n_threads = n_threads or self.n_threads
        self._generation += 1
        server = self.net.add_server(
            f"{self.name}-p{position}-g{self._generation}",
            n_cores=n_threads, cpu_hz=self.costs.cpu_hz,
            nic_pps=self.costs.nic_pps, nic_queues=n_threads,
            nic_queue_depth=self.costs.nic_queue_depth)
        if self.region_plan is not None and position < len(self.region_plan):
            server.region = self.region_plan[position]
        return server

    # -- replication-group geometry (§5) ---------------------------------------

    def group_positions(self, mbox_index: int) -> List[int]:
        """The f+1 ring positions replicating middlebox ``mbox_index``."""
        return [(mbox_index + k) % self.n_positions for k in range(self.f + 1)]

    def tail_position(self, mbox_index: int) -> int:
        return (mbox_index + self.f) % self.n_positions

    def member_mboxes(self, position: int) -> List[Tuple[int, str]]:
        """(index, name) of middleboxes whose group includes ``position``."""
        members = []
        for index, mbox in enumerate(self.middleboxes):
            if position in self.group_positions(index):
                members.append((index, mbox.name))
        return members

    def predecessor_in_group(self, mbox_index: int, position: int) -> int:
        """The group member immediately before ``position`` (§5.2)."""
        group = self.group_positions(mbox_index)
        where = group.index(position)
        if where == 0:
            raise ValueError("the head has no predecessor in its group")
        return group[where - 1]

    def mbox_index(self, mbox_name: str) -> int:
        for index, mbox in enumerate(self.middleboxes):
            if mbox.name == mbox_name:
                return index
        raise KeyError(mbox_name)

    # -- lookups ----------------------------------------------------------------

    def replica_at(self, position: int) -> Replica:
        return self.replicas[position]

    def server_at(self, position: int):
        return self.net.servers[self.route[position]]

    def store_of(self, mbox_name: str, position: int):
        """A position's state store for one middlebox (tests/inspection)."""
        return self.replicas[position].states[mbox_name].store

    def commit_lag(self, mbox_name: str) -> int:
        """Most logs of ``mbox_name`` any replica the chain holds still
        retains: the window not yet known to be replicated f+1 times."""
        return max((len(replica.states[mbox_name].retained)
                    for replica in self.replicas
                    if mbox_name in replica.states), default=0)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def stop(self) -> None:
        for replica in self.replicas:
            replica.stop()
        self.forwarder.stop()
        self.buffer.stop()
        for channel in self._channels.values():
            channel.stop()

    # -- data plane ------------------------------------------------------------------

    def ingress(self, packet: Packet) -> None:
        """Entry point for traffic generators."""
        if packet.created_at == 0.0:
            packet.created_at = self.sim.now
        if self.classifier is not None and packet.is_data \
                and not self.classifier.admits(packet.flow):
            self.classifier_drops += 1
            return
        if self.admission is not None and packet.is_data \
                and not self.admission.offer(packet):
            # Shed at ingress -- the only point where a drop cannot
            # desynchronize replicated state (PROTOCOL.md §12.2).
            return
        self.packets_in += 1
        if self._stamp_config:
            packet.meta["cfg"] = self.forwarder.config_epoch
        hold = self._holds.get(0)
        if hold is not None and hold.active:
            hold.park(packet)
            return
        self.net.deliver_external(self.route[0], packet)

    def _inject_propagating(self, packet: Packet) -> None:
        """Forwarder-timer injection point for propagating packets.

        While position 0 is mid-switch its workers are down; putting
        the packet on the old NIC would strand the forwarder's pending
        logs there, so re-absorb them and let the timer retry once the
        replacement's workers are up.
        """
        replica = self.replica_at(0)
        if 0 in self._switching:
            message = packet.detach("ftc")
            if message is not None:
                self.forwarder.absorb_feedback(message)
            return
        if not replica.enqueue_local(packet):
            # NIC queue full under overload: a propagating packet
            # carries unreplicated logs, so dropping it would break the
            # replication invariant.  Re-absorb its piggyback state and
            # let the forwarder's propagation timer re-offer it.
            message = packet.detach("ftc")
            if message is not None:
                self.forwarder.absorb_feedback(message)
            self.propagating_requeued += 1
            if self.telemetry.enabled:
                self.telemetry.emit("piggyback", "requeue", t=self.sim.now,
                                    pid=packet.pid)

    def _deliver(self, packet: Packet) -> None:
        self.deliver(packet)

    def send_to_position(self, src: int, dst: int, packet: Packet) -> None:
        hold = self._holds.get(dst)
        if hold is not None and hold.active:
            hold.park(packet)
            return
        self._send_unheld(src, dst, packet)

    def _forward_released(self, position: int, packet: Packet) -> None:
        """Re-emit one packet a ReconfigHold parked (bypasses the hold)."""
        if position == 0:
            self.net.deliver_external(self.route[0], packet)
        else:
            self._send_unheld(position - 1, position, packet)

    def _send_unheld(self, src: int, dst: int, packet: Packet) -> None:
        src_name, dst_name = self.route[src], self.route[dst]
        link = self.net.connect(src_name, dst_name)
        if not self.reliable_links:
            self.net.send(src_name, dst_name, packet)
            return
        if self.net.servers[src_name].failed:
            self.net.drop_to_failed(packet)
            return
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = self._new_channel(src, dst)
        # Recovery replaces a failed position's links with fresh ones,
        # so re-adopt lazily: bind() is a no-op when already bound.
        channel.bind(link)
        channel.send(packet)

    def _new_channel(self, src: int, dst: int) -> ReliableChannel:
        """Create the hop's channel on its first send."""
        channel = ReliableChannel(
            self.sim, name=f"{self.name}/ch{src}-{dst}",
            policy=DATA_RETRY_POLICY,
            hop_header_bytes=self.costs.hop_header_bytes,
            ack_delay_s=self.costs.hop_delay_s,
            loss_fn=self.net.data_leg_lost,
            on_silence=lambda: self._hop_silent(src, dst),
            telemetry=self.telemetry)
        self._channels[(src, dst)] = channel
        if self.admission is not None and self.admission.bus is not None:
            self.admission.bus.add(
                f"ch{src}-{dst}", lambda ch=channel: len(ch.txq),
                bound=channel.txq_bound)
        return channel

    def _hop_silent(self, src: int, dst: int) -> None:
        for observer in list(self.silence_observers):
            observer(src, dst)

    def channel_stats(self) -> Dict[str, int]:
        """Reliability-layer counters summed over all hop channels.

        Counters include every channel :meth:`retire_channels` cleared,
        so they never go down; peaks and levels cover live channels.
        """
        totals = dict(self._retired_channel_stats)
        for channel in self._channels.values():
            for key, value in channel.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def retire_channels(self) -> None:
        """Stop and forget every hop channel (a restructure renumbers
        the hops), keeping their counters in :meth:`channel_stats`."""
        retired = self._retired_channel_stats
        for channel in self._channels.values():
            channel.stop()
            for key, value in channel.stats().items():
                if key not in _CHANNEL_LEVELS:
                    retired[key] = retired.get(key, 0) + value
        self._channels.clear()

    def _send_feedback(self, packet: Packet) -> None:
        """Buffer -> forwarder dissemination over the 10 GbE path."""
        first = self.server_at(0)
        last = self.server_at(self.n_positions - 1)
        if first.failed or last.failed:
            self.feedback_lost += 1
            return
        delay = (self._feedback_serializer.admission_delay(packet) +
                 self.costs.hop_delay_s)
        message = packet.detach("ftc")

        def arrive():
            if self.server_at(0).failed:
                self.feedback_lost += 1
                return
            self.forwarder.absorb_feedback(message)

        self.sim.schedule_callback(delay, arrive)

    # -- retransmission support -------------------------------------------------------

    def fetch_retained_logs(self, position: int, mbox_name: str):
        """Generator: ask the predecessor in the group for retained logs."""
        mbox_index = self.mbox_index(mbox_name)
        pred = self.predecessor_in_group(mbox_index, position)
        pred_replica = self.replica_at(pred)
        pred_server = self.server_at(pred)

        def handler():
            if pred_server.failed:
                return []
            state = pred_replica.states.get(mbox_name)
            return state.unpruned_logs() if state is not None else []

        _, logs = yield from call_with_deadline(
            self.net, self.route[position], self.route[pred], handler,
            CONTROL_TIMEOUT_S, response_bytes=4096)
        return logs or []

    # -- failure injection --------------------------------------------------------------

    def failed_positions(self) -> List[int]:
        """Positions whose current server is failed."""
        return [p for p in range(self.n_positions) if self.server_at(p).failed]

    def safe_to_fail(self, position: int, pending=()) -> bool:
        """Would failing ``position`` keep every group within f losses?

        ``pending`` names positions already considered down (e.g. under
        recovery) beyond those whose servers are marked failed.  The
        chaos monkey uses this to schedule adversarial-but-recoverable
        crashes; passing an unsafe position to :func:`fail_position`
        still works but leads to ``UnrecoverableError``/degraded mode.
        """
        down = set(self.failed_positions()) | set(pending) | {position}
        for index in range(self.n_mboxes):
            group = self.group_positions(index)
            if sum(1 for p in group if p in down) > self.f:
                return False
        return True

    def fail_position(self, position: int) -> None:
        """Fail-stop the server at ``position`` (and its replica)."""
        server = self.server_at(position)
        server.fail()
        self.replica_at(position).stop()
        if position == 0:
            # The forwarder's soft state dies with the first server.
            self.forwarder.discard_pending()
        if position == self.n_positions - 1:
            # The buffer's held packets die with the last server.
            self.buffer_packets_lost += self.buffer.discard_held()
            self.buffer.feedback_logs.clear()
        # Hop channels touching the position lose their endpoint state;
        # a new epoch fences any frame/ACK still in flight (§8).
        self.invalidate_channels(position)

    def invalidate_channels(self, position: int) -> None:
        """Reset hop channels touching ``position`` after a route change.

        The channel epoch bump fences frames/ACKs still in flight to
        the retired endpoint; the next send re-binds the channel to the
        live link (§8, PROTOCOL.md §11).
        """
        for (src, dst), channel in self._channels.items():
            if position in (src, dst):
                channel.reset()

    # -- position replacement (§5.2 re-steer, PROTOCOL.md §11.3 switch) -------

    def install(self, position: int, replica: Replica) -> str:
        """Put ``replica`` (already holding its state) at ``position``.

        Rewrites the route and the replica table, resets the hop
        channels touching the position (a new epoch drops frames queued
        for the old instance), connects both neighbours and starts the
        workers.  Returns the replaced server's name; the caller
        publishes the change with :meth:`note_route_change`.
        """
        old_name = self.route[position]
        self.route[position] = replica.server.name
        self.replicas[position] = replica
        self.invalidate_channels(position)
        if position > 0:
            self.net.connect(self.route[position - 1], self.route[position])
        if position < self.n_positions - 1:
            self.net.connect(self.route[position], self.route[position + 1])
        replica.start()
        return old_name

    # -- live reconfiguration (PROTOCOL.md §11) --------------------------------

    def note_route_change(self, position: int, old_name: str,
                          new_name: str) -> None:
        """Publish a route mutation (recovery re-steer or reconfig switch).

        Flushes any reconfiguration hold still parked on the position
        (a crash mid-switch leaves the hold orphaned until recovery
        re-steers) and notifies observers -- the orchestrator resets
        its heartbeat-miss streak so the replacement is monitored
        afresh instead of inheriting its predecessor's suspicion.
        """
        hold = self._holds.get(position)
        if hold is not None:
            hold.begin_release()
        for observer in list(self.route_observers):
            observer(position, old_name, new_name)

    def apply_config(self, version: int) -> None:
        """Advance the chain's config version (strictly monotonic).

        Once any reconfiguration has run, ingress stamps packets with
        the current version so the buffer can hold the version
        boundary during later switches.
        """
        if version <= self.config_version:
            raise StaleConfigError(
                f"config version {version} does not advance "
                f"{self.config_version}")
        self.config_version = version
        self._stamp_config = True
        self.forwarder.config_epoch = version

    # -- statistics -------------------------------------------------------------------

    def total_released(self) -> int:
        return self.buffer.released
