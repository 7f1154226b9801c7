"""Per-hop reliable delivery: sequencing, NACK/timeout retransmission.

FTC's inter-replica protocol (§4.1) assumes the wire between adjacent
chain positions delivers packets exactly once, each flow's in order
(the replicas' dependency vectors order logs across flows, §4.3).
Once links can drop, duplicate, reorder, and corrupt
(``repro.net.impairment``), that assumption has to be *built*: a
:class:`ReliableChannel` wraps one chain hop with the classic
machinery --

- every transmission is a :class:`Frame` carrying a per-hop sequence,
  a same-flow back-distance and a checksum (modelled: a corrupted frame
  arrives as ``Corrupted`` and is counted + discarded, like an FCS
  failure);
- the receiver delivers in **per-flow** order: a frame goes up as soon
  as the earlier frame of its flow that it names has, so a loss on one
  flow does not hold back the others.  It parks a bounded set of
  frames that must wait, accepts nothing ``window + reorder_cap`` or
  more sequences past its lowest undelivered one, discards duplicates,
  and acknowledges cumulatively plus every sequence received above
  that (SACK);
- a gap triggers a coalesced, rate-limited **NACK** listing the missing
  sequences, so a single loss is repaired in about one RTT;
- a timeout fallback retransmits anything unacknowledged past an RTO
  with capped exponential backoff (reusing
  :class:`repro.net.retry.RetryPolicy` for the schedule), covering
  lost NACKs/ACKs and trailing losses with no later frame to expose
  the gap;
- the sender's in-flight window is bounded: excess sends queue in
  FIFO order, so memory stays bounded under a lossy storm
  (backpressure rather than unbounded buffering);
- a receiver that goes **silent** -- frames outstanding and no ACK or
  NACK heard for one RTO -- is reported once through ``on_silence``
  (the chain forwards it to the orchestrator as a failure hint); the
  report re-arms when an ACK arrives.

Both endpoints of a hop live in one object (the simulator sees every
side), and ACK/NACK legs travel as modelled reverse-path callbacks that
share the wire's fate -- an installed impairment's drop rate applies to
them too.  A ``reset()`` (crash of either endpoint) bumps the channel
*epoch*; frames and acknowledgements from earlier epochs are discarded,
so a retransmission from before a failover can never corrupt the
replacement's sequence space.

Retransmission here is wire-level and complements (not replaces) the
FTC-layer retransmission of retained piggyback logs (§4.1): the channel
repairs the hop, the log protocol repairs across failovers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set

from ..sim import CancelledError, Interrupt, Simulator
from ..telemetry import NULL_TELEMETRY
from .retry import RetryPolicy

__all__ = ["Frame", "ReliableChannel", "DATA_RETRY_POLICY",
           "DEFAULT_WINDOW", "DEFAULT_REORDER_CAP"]

#: Data-plane retransmission schedule: much tighter than the control
#: plane's (the hop RTT is ~13 us, not milliseconds).  ``max_attempts``
#: is ignored -- the channel retries until acked or reset, because
#: giving up would convert impairment into loss.  No jitter: impaired
#: runs must be a pure function of the impairment stream.
DATA_RETRY_POLICY = RetryPolicy(timeout_s=150e-6, max_attempts=0,
                                backoff_base_s=50e-6, backoff_factor=2.0,
                                backoff_max_s=2e-3, jitter_frac=0.0)

#: Sender in-flight window (frames awaiting acknowledgement).
DEFAULT_WINDOW = 512

#: Receiver out-of-order hold capacity (frames parked awaiting a gap).
DEFAULT_REORDER_CAP = 256

#: Minimum spacing between gap-NACKs (coalesces a burst of gaps).
NACK_MIN_INTERVAL_S = 20e-6

_MAX_BACK = 255   # the header's one-byte same-flow back-distance


class Frame:
    """One wire transmission: hop header + payload.

    The 8 B header is a 3 B sequence, a 1 B ``back`` and a 4 B checksum.
    ``back`` is how many sequences earlier the packet's flow last sent
    on this hop (1..255); 0 means unknown or further, and the receiver
    then waits for every earlier sequence.

    A retransmission re-sends the same frame; its size is read per
    send, because a delivered packet keeps mutating as it travels on
    (its piggyback message is detached, logs stripped at tails).
    """

    __slots__ = ("seq", "epoch", "packet", "header_bytes", "back")

    def __init__(self, seq: int, epoch: int, packet, header_bytes: int,
                 back: int = 0):
        self.seq = seq
        self.epoch = epoch
        self.packet = packet
        self.header_bytes = header_bytes
        self.back = back

    @property
    def wire_size(self) -> int:
        return self.packet.wire_size + self.header_bytes

    def __repr__(self):
        return f"<Frame seq={self.seq} e{self.epoch} {self.packet!r}>"


class _Pending:
    """Sender-side bookkeeping for one unacknowledged frame."""

    __slots__ = ("frame", "attempts", "deadline")

    def __init__(self, frame: Frame, attempts: int, deadline: float):
        self.frame = frame
        self.attempts = attempts
        self.deadline = deadline


class ReliableChannel:
    """Exactly-once, per-flow-ordered delivery over one (impairable) hop."""

    def __init__(self, sim: Simulator, name: str = "channel",
                 policy: RetryPolicy = DATA_RETRY_POLICY,
                 hop_header_bytes: int = 8,
                 ack_delay_s: float = 6.5e-6,
                 window: int = DEFAULT_WINDOW,
                 reorder_cap: int = DEFAULT_REORDER_CAP,
                 loss_fn: Optional[Callable[[], bool]] = None,
                 on_silence: Optional[Callable[[], None]] = None,
                 telemetry=None):
        self.sim = sim
        self.name = name
        self.policy = policy
        self.hop_header_bytes = hop_header_bytes
        self.ack_delay_s = ack_delay_s
        self.window = window
        self.reorder_cap = reorder_cap
        #: Drawn per ACK/NACK leg; shares the data impairment's fate.
        self.loss_fn = loss_fn or (lambda: False)
        #: Called once when the receiver falls silent (module docstring).
        self.on_silence = on_silence or (lambda: None)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        registry = self.telemetry.registry
        registry.counter("channel/retransmissions",
                         lambda: self.retransmissions)
        registry.counter("channel/nacks", lambda: self.nacks_sent)
        registry.counter("channel/dup_dropped", lambda: self.dup_dropped)
        registry.counter("channel/corrupt_dropped",
                         lambda: self.corrupt_dropped)
        registry.counter("channel/window_stalls", lambda: self.window_stalls)
        registry.histogram("channel/inflight")
        registry.counter("drops/channel-reorder", lambda: self.reorder_dropped)

        self.epoch = 0
        self._link = None
        self._deliver: Callable[[Any], None] = lambda packet: None
        # -- sender state --
        self.next_seq = 0
        self._una = 0   # every sequence below it is cumulatively acked
        #: Inserted in ascending sequence order, so iteration ascends.
        self.unacked: Dict[int, _Pending] = {}
        self.txq: Deque[Any] = deque()
        #: Send-queue pressure bound (PROTOCOL.md §12.2).  The queue is
        #: deliberately *not* hard-bounded -- dropping an in-chain
        #: packet here would desynchronize replicated state -- but past
        #: this depth the channel reports full backpressure, which the
        #: ingress gate turns into shedding where it is safe.
        self.txq_bound = 4 * window
        self.txq_peak = 0
        #: Flow 5-tuple -> sequence of its latest frame on this hop.
        self._flow_seq: Dict[tuple, int] = {}
        # -- receiver state --
        self.next_expected = 0   # every sequence below it is delivered
        #: Delivered above ``next_expected`` (SACKed, stepped over once
        #: the gap below is repaired).
        self._ahead: Set[int] = set()
        #: Parked frames by sequence, and by the same-flow sequence each
        #: awaits (frames naming none wait for ``next_expected``).
        self.ooo: Dict[int, Frame] = {}
        self._parked_after: Dict[int, Frame] = {}
        self._last_nack_at = -1.0
        self._ack_inflight = False
        self._ack_again = False
        # -- receiver liveness, as the sender sees it --
        #: Last ACK/NACK heard, or when frames last became outstanding.
        self._heard_at = 0.0
        self._silence_reported = False
        # -- counters --
        self.sent = 0
        self.delivered = 0
        self.retransmissions = 0
        self.nacks_sent = 0
        self.acks_sent = 0
        self.dup_dropped = 0
        self.corrupt_dropped = 0
        self.stale_dropped = 0
        self.reorder_dropped = 0
        self.window_stalls = 0
        self.ooo_held_peak = 0

        self._alive = True
        self._kick = sim.event()
        self._watchdog = sim.process(self._watchdog_loop(),
                                     name=f"{name}/watchdog")

    # -- wiring ---------------------------------------------------------------

    def bind(self, link) -> None:
        """Adopt a link: frames go out on it, its sink becomes ours.

        Idempotent and re-entrant: recovery replaces a failed position's
        links with fresh ones, so the chain re-binds lazily per send.
        """
        if link is self._link:
            return
        self._link = link
        if link.sink != self._on_wire:
            # Guard against re-adopting a link we already own (e.g.
            # after reset()): its sink is our receiver, and capturing
            # that as _deliver would loop delivery back into ourselves.
            self._deliver = link.sink
            link.sink = self._on_wire

    def stop(self) -> None:
        self._alive = False
        if self._watchdog is not None and self._watchdog.is_alive:
            self._watchdog.interrupt("channel stopped")
        self._watchdog = None

    def reset(self) -> None:
        """An endpoint failed: discard state, open a new epoch.

        Unacknowledged frames die with the sender (their recovery is
        the FTC layer's job); parked out-of-order frames die with the
        receiver.  Anything still in flight carries the old epoch and
        is discarded on arrival.
        """
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "reset", t=self.sim.now,
                                name=self.name, from_epoch=self.epoch,
                                unacked=len(self.unacked),
                                parked=len(self.ooo))
        self.epoch += 1
        self.next_seq = 0
        self._una = 0
        self.unacked.clear()
        self.txq.clear()
        self._flow_seq.clear()
        self.next_expected = 0
        self._ahead.clear()
        self.ooo.clear()
        self._parked_after.clear()
        self._ack_inflight = False
        self._ack_again = False
        self._last_nack_at = -1.0
        self._silence_reported = False   # a new epoch, a new receiver
        self._link = None

    # -- sender ----------------------------------------------------------------

    def send(self, packet) -> None:
        """Send a packet; it is delivered exactly once, in flow order."""
        if len(self.unacked) >= self.window:
            self.txq.append(packet)
            if len(self.txq) > self.txq_peak:
                self.txq_peak = len(self.txq)
            self.window_stalls += 1
        else:
            self._transmit(packet)
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "frame", t=self.sim.now)

    def _transmit(self, packet) -> None:
        seq = self.next_seq
        self.next_seq = seq + 1
        self.sent += 1
        flow = packet.flow   # keyed by fields: FlowKey.__hash__ is Python
        key = (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
               flow.proto)
        flow_seq = self._flow_seq
        back = seq - flow_seq[key] if key in flow_seq else 0
        flow_seq[key] = seq
        if seq % 256 == 0:   # forget flows too far back to be named
            self._flow_seq = {k: last for k, last in flow_seq.items()
                              if seq - last <= _MAX_BACK}
        frame = Frame(seq, self.epoch, packet, self.hop_header_bytes,
                      back if back <= _MAX_BACK else 0)
        now = self.sim.now
        if not self.unacked:   # silence is counted from here at most
            self._heard_at = now
        self.unacked[seq] = _Pending(frame, 1, now + self.policy.timeout_s)
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "transmit", t=now,
                                value=float(len(self.unacked)))
        self._link.send(frame)
        if not self._kick.triggered:
            self._kick.succeed()

    def _rto(self, attempts: int) -> float:
        """Deadline for retry ``attempts``: base timeout + capped backoff."""
        return self.policy.timeout_s + self.policy.backoff_s(max(1, attempts))

    def _retransmit(self, seq: int, pending: _Pending) -> None:
        pending.attempts += 1
        pending.deadline = self.sim.now + self._rto(pending.attempts)
        self.retransmissions += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                "channel", "retransmit", t=self.sim.now,
                pid=getattr(pending.frame.packet, "pid", None),
                name=self.name, seq=seq, attempt=pending.attempts)
        self._link.send(pending.frame)

    def _watchdog_loop(self):
        """Timeout fallback: retransmit anything unacked past its RTO,
        and report a receiver silent for a whole RTO."""
        rto = self.policy.timeout_s
        check_interval = rto / 2.0
        try:
            while self._alive:
                if not self.unacked:
                    self._kick = self.sim.event()
                    yield self._kick
                    continue
                yield self.sim.timeout(check_interval)
                now = self.sim.now
                for seq, pending in self.unacked.items():   # ascending
                    if pending.deadline <= now:
                        self._retransmit(seq, pending)
                if (self.unacked and now - self._heard_at >= rto
                        and not self._silence_reported):
                    # A live receiver ACKs every arrival, so a whole
                    # RTO of silence under traffic means it is gone.
                    self._silence_reported = True
                    self.on_silence()
        except (Interrupt, CancelledError):
            return

    # -- receiver ---------------------------------------------------------------

    def _on_wire(self, obj) -> None:
        if isinstance(obj, Frame):
            seq = obj.seq
            expected = self.next_expected
            if obj.epoch != self.epoch:
                self.stale_dropped += 1
            elif seq < expected or seq in self._ahead or seq in self.ooo:
                self.dup_dropped += 1
                self._schedule_ack()  # re-ACK: the original ACK may be lost
            elif seq == expected and not self._ahead and not self.ooo:
                # In order with nothing received ahead: no gap to mind.
                self.delivered += 1
                self.next_expected = seq + 1
                self._deliver(obj.packet)
                self._schedule_ack()
            elif seq - expected >= self.window + self.reorder_cap:
                self._reorder_drop(seq, "receive span full")
            elif (seq == expected or seq - obj.back < expected
                  or seq - obj.back in self._ahead):
                self._release(obj)   # its same-flow predecessor is delivered
                if seq != expected:
                    self._schedule_nack(seq)
                self._schedule_ack()
            elif len(self.ooo) >= self.reorder_cap:
                self._reorder_drop(seq, f"ooo hold full ({self.reorder_cap})")
            else:
                self.ooo[seq] = obj
                if obj.back:
                    self._parked_after[seq - obj.back] = obj
                self.ooo_held_peak = max(self.ooo_held_peak, len(self.ooo))
                self._schedule_nack(seq)
                self._schedule_ack()
        elif getattr(obj, "corrupted_wire", False):
            # Checksum failure: recovered like a loss.
            inner = obj.inner
            if isinstance(inner, Frame) and inner.epoch == self.epoch:
                self.corrupt_dropped += 1
        else:
            self._deliver(obj)  # unframed traffic passes through
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "frame", t=self.sim.now)

    def _release(self, frame: Frame) -> None:
        """Deliver ``frame``, then every parked frame that this frees:
        the next frame of a flow, or a frame naming no predecessor once
        every sequence below it is delivered."""
        ooo, ahead, parked_after = self.ooo, self._ahead, self._parked_after
        ready = [frame]
        while ready:
            frame = ready.pop()
            seq = frame.seq
            self.delivered += 1
            self._deliver(frame.packet)
            if seq == self.next_expected:
                seq += 1
                while seq in ahead:   # step over frames delivered ahead
                    ahead.remove(seq)
                    seq += 1
                self.next_expected = seq
                parked = ooo.get(seq) if ooo else None
                if parked is not None and not parked.back:
                    del ooo[seq]
                    ready.append(parked)
            else:
                ahead.add(seq)
            if parked_after:
                successor = parked_after.pop(frame.seq, None)
                if successor is not None:
                    del ooo[successor.seq]
                    ready.append(successor)

    def _reorder_drop(self, seq: int, why: str) -> None:
        """Bounded memory beats holding everything: drop the frame; the
        sender's RTO offers it again once the gap ahead is repaired."""
        self.reorder_dropped += 1
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "reorder-drop", t=self.sim.now,
                                name=self.name, why=why, seq=seq)

    # -- acknowledgement legs ------------------------------------------------------

    def _schedule_ack(self) -> None:
        """Coalesced cumulative ACK: at most one in flight at a time."""
        if self._ack_inflight:
            self._ack_again = True
            return
        self._ack_inflight = True
        lost = self.loss_fn()
        epoch = self.epoch

        def arrive():
            self._ack_inflight = False
            if self._ack_again:
                self._ack_again = False
                self._schedule_ack()
            if lost or epoch != self.epoch:
                return
            self._on_ack(epoch, self.next_expected - 1, self._ahead,
                         self.ooo)

        self.acks_sent += 1
        self.sim.schedule_callback(self.ack_delay_s, arrive)

    def _on_ack(self, epoch: int, cumulative: int, *sacked) -> None:
        if epoch != self.epoch:
            return
        self._heard_at = self.sim.now
        self._silence_reported = False
        unacked = self.unacked
        for seq in range(self._una, cumulative + 1):
            if seq in unacked:
                del unacked[seq]
        if cumulative >= self._una:
            self._una = cumulative + 1
        for received in sacked:
            for seq in received:
                if seq in unacked:
                    del unacked[seq]
        # Queued sends go out in order as the window opens (a queue
        # exists only while the window is full).
        txq = self.txq
        while txq and len(unacked) < self.window:
            self._transmit(txq.popleft())
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "ack", t=self.sim.now)

    def _schedule_nack(self, got_seq: int) -> None:
        """Gap-NACK: list the missing sequences below an arrival."""
        now = self.sim.now
        if now - self._last_nack_at < NACK_MIN_INTERVAL_S:
            return
        missing = tuple(seq for seq in range(self.next_expected, got_seq)
                        if seq not in self._ahead and seq not in self.ooo)
        if not missing:
            return
        self._last_nack_at = now
        self.nacks_sent += 1
        if self.telemetry.enabled:
            self.telemetry.emit("channel", "nack", t=now, name=self.name,
                                missing=missing)
        lost = self.loss_fn()
        epoch = self.epoch

        def arrive():
            if lost or epoch != self.epoch:
                return
            self._on_nack(epoch, missing)

        self.sim.schedule_callback(self.ack_delay_s, arrive)

    def _on_nack(self, epoch: int, missing) -> None:
        if epoch != self.epoch:
            return
        self._heard_at = self.sim.now
        for seq in missing:
            pending = self.unacked.get(seq)
            if pending is not None:
                self._retransmit(seq, pending)

    # -- introspection -------------------------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self.unacked)

    def stats(self) -> Dict[str, int]:
        return {
            "sent": self.sent, "delivered": self.delivered,
            "retransmissions": self.retransmissions,
            "nacks_sent": self.nacks_sent, "acks_sent": self.acks_sent,
            "dup_dropped": self.dup_dropped,
            "corrupt_dropped": self.corrupt_dropped,
            "stale_dropped": self.stale_dropped,
            "reorder_dropped": self.reorder_dropped,
            "window_stalls": self.window_stalls,
            "ooo_held_peak": self.ooo_held_peak,
            "txq_peak": self.txq_peak,
            "inflight": len(self.unacked), "queued": len(self.txq),
        }

    def __repr__(self):
        return (f"<ReliableChannel {self.name} e{self.epoch} "
                f"inflight={len(self.unacked)} next={self.next_seq}>")
