"""The buffer element at the chain egress (§5).

The buffer withholds a packet from release until the state updates of
every middlebox that processed it are replicated f+1 times.  For
middleboxes whose replication group wraps to the beginning of the
chain, the packet's logs are still unreplicated when it arrives here;
the buffer keeps those logs flowing by feeding them back to the
forwarder and releases the packet once later commit vectors cover its
dependency vectors.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.packet import FlowKey, Packet, PidBitmap
from ..sim import Simulator
from ..telemetry import NULL_TELEMETRY
from .costs import CostModel, DEFAULT_COSTS
from .piggyback import CommitVector, PiggybackLog, PiggybackMessage

__all__ = ["Buffer"]

_FEEDBACK_FLOW = FlowKey(0x0A0000FD, 0x0A0000FC, 0, 0, 0)

#: Minimum spacing between feedback packets: under load many packets'
#: state shares one feedback message (real deployments batch exactly
#: like this to keep the 10 GbE dissemination link's pps down).
_FEEDBACK_MIN_INTERVAL_S = 0.5e-6

#: Pages of packet ids remembered for duplicate suppression
#: (PROTOCOL.md §8.2): 64 x 2**15 = 2**21 ids in at most 256 KiB, far
#: above any plausible in-flight population, so a duplicate arriving
#: within the retransmission horizon is always caught.
_DEDUP_HORIZON_PAGES = 64

#: Default bound on the held set: past this the buffer sheds load
#: instead of growing without limit (a wedged commit path must not
#: exhaust memory; shed packets are counted, never silently lost).
_DEFAULT_MAX_HELD = 65536

#: Shared release-requirements value for the (common) packet carrying
#: no wrap-around logs; never mutated -- _satisfied only reads it.
_NO_REQUIREMENTS: Dict[str, Dict[int, int]] = {}


class Buffer:
    """Egress element: release gating, state feedback, commit tracking."""

    def __init__(self, sim: Simulator, deliver: Callable[[Packet], None],
                 send_feedback: Callable[[Packet], None],
                 costs: CostModel = DEFAULT_COSTS, name: str = "buffer",
                 telemetry=None, max_held: int = _DEFAULT_MAX_HELD):
        self.sim = sim
        self.deliver = deliver
        self.send_feedback = send_feedback
        self.costs = costs
        self.name = name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prof = self.telemetry.profiler
        registry = self.telemetry.registry
        self._m_hold = registry.histogram(f"{name}/hold_time_s")
        self._m_held = registry.gauge(f"{name}/held")
        self._m_released = registry.counter(f"{name}/released")
        self._m_feedback = registry.counter(f"{name}/feedback_packets")
        self._m_duplicates = registry.counter(f"{name}/duplicates_dropped")
        self._m_overflow = registry.counter(f"{name}/overflow_dropped")
        self._m_drop_site = registry.counter("drops/buffer-overflow")
        self._flight = self.telemetry.flight
        #: pid -> virtual time the packet entered the held queue (only
        #: populated while telemetry is enabled).
        self._hold_started: Dict[int, float] = {}
        self.commit_floor: Dict[str, Dict[int, int]] = {}
        #: Floors already disseminated to the forwarder; feedback
        #: packets carry only deltas so the 10 GbE path is not wasted
        #: re-sending full vectors (which saturates it at high f).
        self._commit_sent: Dict[str, Dict[int, int]] = {}
        #: FIFO of ``(packet, requirements, flow 5-tuple)``.
        self.held: List[Tuple[Packet, Dict[str, Dict[int, int]], tuple]] = []
        #: Flow 5-tuple -> packets of that flow in ``held``.  A covered
        #: packet still waits behind them: egress keeps each flow in
        #: order.  Keyed by fields, so no ``FlowKey.__hash__`` call.
        self._held_flows: Dict[tuple, int] = {}
        self.feedback_logs: List[PiggybackLog] = []
        self._feedback_dirty = False
        self._feedback_kick = sim.event()
        self.released = 0
        self.packets_seen = 0
        self.cycles_spent = 0.0
        self.held_peak = 0
        self.max_held = max_held
        #: Minimum spacing between feedback packets; brownout's
        #: ack-batching action stretches this (PROTOCOL.md §12.3).
        self.feedback_min_interval_s = _FEEDBACK_MIN_INTERVAL_S
        self.propagating_consumed = 0
        #: Exactly-once egress (§8): duplicate deliveries (a retransmit
        #: that raced its ACK, a link-duplicated packet) are absorbed
        #: here -- their piggyback content is idempotent upstream, and
        #: the packet itself must not be released twice.
        self.duplicates_dropped = 0
        self.overflow_dropped = 0
        self._seen_pids = PidBitmap(_DEDUP_HORIZON_PAGES)
        #: Config-version boundary (PROTOCOL.md §11): while set,
        #: packets stamped with this version or newer park until
        #: :meth:`release_boundary` -- the quiesce barrier guarantees
        #: no new-config packet egresses before the switch commits.
        self._boundary: Optional[int] = None
        self._boundary_parked: List[Tuple[Packet, PiggybackMessage]] = []
        self._alive = True
        self._sender = sim.process(self._feedback_loop(), name=f"{name}/feedback")

    # -- per-packet handling (called by the last replica's worker) -----------

    def handle(self, packet: Packet, message: PiggybackMessage) -> float:
        """Process one packet at chain egress; returns CPU cycles spent."""
        prof = self._prof
        if prof.enabled:
            prof.count("buffer/hold")
        if (self._boundary is not None and packet.is_data
                and packet.meta.get("cfg", -1) >= self._boundary):
            self._boundary_parked.append((packet, message))
            return 0.0
        self.packets_seen += 1
        cycles = self.costs.buffer_cycles
        if self._seen_pids.add(packet.pid):
            # Duplicate delivery: everything this message carries was
            # already absorbed (log offers and commit merges are
            # idempotent), so the whole packet is a no-op -- and
            # releasing it again would break exactly-once egress.
            self.duplicates_dropped += 1
            self._m_duplicates.inc()
            if self._flight.enabled:
                self._flight.record(
                    "buffer", "dup-drop", t=self.sim.now, pid=packet.pid,
                    detail="duplicate delivery absorbed at egress",
                    chain=f"pid:{packet.pid}")
            self.cycles_spent += cycles
            return cycles
        # 1. Absorb commit vectors (including any this packet carried
        #    from the final tail) before evaluating release conditions.
        for mbox, commit in message.commits.items():
            floor = self.commit_floor.setdefault(mbox, {})
            commit.merge_into(floor)
        if message.commits:
            self._feedback_dirty = True

        # 2. Any logs still aboard belong to wrap-around groups: they
        #    define this packet's release requirements and must be fed
        #    back to the forwarder to continue replication.  Most
        #    packets (any f < chain length run) carry none: share one
        #    immutable empty dict instead of allocating a fresh dict +
        #    key-list copy per packet.
        requirements: Dict[str, Dict[int, int]] = _NO_REQUIREMENTS
        if message.logs:
            requirements = {}
            for mbox in list(message.logs):
                for log in message.take_logs(mbox):
                    cycles += self.costs.piggyback_attach_cycles
                    if log.packet_id == packet.pid and not log.is_noop:
                        requirements[mbox] = dict(log.depvec)
                    self.feedback_logs.append(log)
                    self._feedback_dirty = True

        if self._feedback_dirty and not self._feedback_kick.triggered:
            self._feedback_kick.succeed()

        # 3. Release logic.
        flow = packet.flow
        key = (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
               flow.proto)
        held_flows = self._held_flows
        if packet.kind == "propagating":
            self.propagating_consumed += 1
        elif self._satisfied(requirements) and key not in held_flows:
            self._release(packet)
        elif len(self.held) >= self.max_held:
            # Backpressure floor: shed instead of growing unboundedly
            # when the commit path is wedged (counted, not silent).
            self.overflow_dropped += 1
            self._m_overflow.inc()
            self._m_drop_site.inc()
            if self._flight.enabled:
                self._flight.record(
                    "buffer", "shed", t=self.sim.now, pid=packet.pid,
                    detail=f"held set full ({self.max_held})",
                    chain=f"pid:{packet.pid}")
        else:
            self.held.append((packet, requirements, key))
            if key in held_flows:
                held_flows[key] += 1
            else:
                held_flows[key] = 1
            self.held_peak = max(self.held_peak, len(self.held))
            if self.telemetry.enabled:
                self._hold_started[packet.pid] = self.sim.now
                tracer = self.telemetry.tracer
                if tracer.wants(packet.pid):
                    tracer.begin_async(packet.pid, "buffer-hold", "buffer",
                                       self.sim.now,
                                       mboxes=sorted(requirements))
            if self._flight.enabled:
                self._flight.record(
                    "buffer", "hold", t=self.sim.now, pid=packet.pid,
                    detail=f"awaiting commits from {sorted(requirements)}",
                    chain=f"pid:{packet.pid}")
        if self.held:
            self._scan_held()
        if prof.enabled:
            prof.count("buffer/release")
        if self.telemetry.enabled:
            self._m_held.set(len(self.held))
        self.cycles_spent += cycles
        return cycles

    # -- release machinery --------------------------------------------------------

    def _satisfied(self, requirements: Dict[str, Dict[int, int]]) -> bool:
        """Every required entry is under its floor (``CommitVector.covers``
        asked of the floor dicts themselves)."""
        for mbox, depvec in requirements.items():
            floor = self.commit_floor.get(mbox)
            if floor is None:
                return False
            for partition, seq in depvec.items():
                if floor.get(partition, 0) < seq + 1:
                    return False
        return True

    def _release(self, packet: Packet) -> None:
        packet.detach("ftc")
        self.released += 1
        if self.telemetry.enabled:
            self._m_released.inc()
            held_since = self._hold_started.pop(packet.pid, None)
            self._m_hold.observe(
                0.0 if held_since is None else self.sim.now - held_since,
                t=self.sim.now)
            tracer = self.telemetry.tracer
            if tracer.wants(packet.pid):
                if held_since is not None:
                    tracer.end_async(packet.pid, "buffer-hold", "buffer",
                                     self.sim.now)
                tracer.instant(packet.pid, "release", "buffer", self.sim.now)
        if self._flight.enabled:
            self._flight.record(
                "buffer", "release", t=self.sim.now, pid=packet.pid,
                detail="all dependency vectors covered f+1 times",
                chain=f"pid:{packet.pid}")
        self.deliver(packet)

    def _scan_held(self) -> None:
        """Release the FIFO prefix of held packets that is now covered.

        Scanning from the front and stopping at the first unsatisfied
        packet is O(releases) amortized -- essential when most
        replication groups wrap (large f) and thousands of packets may
        be held at once -- and releases each flow in order.  Reliable
        hops deliver in per-flow order, so commit vectors no longer
        arrive in packet order and a covered packet can wait behind an
        uncovered one of another flow: on ``lossy-ch5-f2`` (seed 0,
        81.5 ms) 286 of 8,252 held packets did, 13.7 us each on average
        (1 when hops delivered in total order).  Skipping them would
        rescan the held set.
        """
        released_prefix = 0
        held_flows = self._held_flows
        for packet, requirements, key in self.held:
            if not self._satisfied(requirements):
                break
            count = held_flows[key]
            if count == 1:
                del held_flows[key]
            else:
                held_flows[key] = count - 1
            self._release(packet)
            released_prefix += 1
        if released_prefix:
            del self.held[:released_prefix]

    def hold_boundary(self, version: int) -> None:
        """Start parking packets stamped with ``version`` or newer."""
        self._boundary = version
        self._boundary_parked = []

    def release_boundary(self) -> None:
        """Replay boundary-parked packets in order; clear the boundary."""
        if self._boundary is None:
            return
        self._boundary = None
        parked, self._boundary_parked = self._boundary_parked, []
        for packet, message in parked:
            self.handle(packet, message)

    def discard_held(self) -> int:
        """Drop every held packet (a mid-chain failure orphaned them).

        Returns how many packets were discarded.
        """
        dropped = len(self.held)
        self.held.clear()
        self._held_flows.clear()
        self._hold_started.clear()
        self._m_held.set(0)
        return dropped

    # -- feedback to the forwarder ---------------------------------------------

    def stop(self) -> None:
        self._alive = False
        if not self._feedback_kick.triggered:
            self._feedback_kick.succeed()

    def _feedback_loop(self):
        while self._alive:
            if not self._feedback_dirty:
                self._feedback_kick = self.sim.event()
                yield self._feedback_kick
                if not self._alive:
                    return
            self._feedback_dirty = False
            packet = Packet(flow=_FEEDBACK_FLOW, size=64, kind="feedback",
                            created_at=self.sim.now)
            message = PiggybackMessage(self.costs)
            message.add_logs(self.feedback_logs)
            self.feedback_logs = []
            for mbox, floor in self.commit_floor.items():
                sent = self._commit_sent.setdefault(mbox, {})
                delta = {p: s for p, s in floor.items() if s != sent.get(p)}
                if delta:
                    message.set_commit(CommitVector(mbox, delta))
                    sent.update(delta)
            packet.attach("ftc", message)
            self._m_feedback.inc()
            self.send_feedback(packet)
            yield self.sim.timeout(max(
                self.feedback_min_interval_s,
                packet.wire_size * 8.0 / self.costs.feedback_bandwidth_bps))
