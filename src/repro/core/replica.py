"""The replica data plane (§4.1, §5.1).

One :class:`Replica` runs on each server of the chain.  It hosts the
position's middlebox (if any) and replicates state for the f preceding
middleboxes on the logical ring.  Worker threads -- one per NIC queue
-- drive the per-packet pipeline:

1. position 0 only: the forwarder merges fed-back logs/commits onto
   the packet's piggyback message;
2. piggyback processing: apply the message's logs for every replicated
   middlebox in dependency-vector order; tails strip their middlebox's
   logs and attach commit vectors; commit vectors prune retained logs;
3. the packet transaction of the local middlebox (data packets only);
   its piggyback log joins the message; filtered packets hand their
   message to a propagating packet;
4. forward to the next replica, or hand to the buffer at the end.

Replicas also run the retransmission protocol: a log held out-of-order
for too long triggers a fetch of the predecessor's retained logs,
which closes gaps caused by packet loss or mid-chain failures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..middlebox.base import DROP, Middlebox
from ..net.packet import Packet
from ..sim import (CancelledError, Interrupt, Process, RandomStreams,
                   Simulator, Timeout)
from ..telemetry import NULL_TELEMETRY
from .costs import CostModel, DEFAULT_COSTS
from .depvec import ReplicationState
from .forwarder import _PROPAGATING_FLOW, _PROPAGATING_SIZE
from .piggyback import PiggybackMessage
from .runtime import MiddleboxRuntime

__all__ = ["Replica"]

#: A log pending longer than this triggers a retransmission request.
RETRANSMIT_AFTER_S = 200e-6

#: How often the retransmission watchdog checks for stuck logs.
RETRANSMIT_CHECK_S = 100e-6


class Replica:
    """One chain position's data plane on one server."""

    def __init__(self, sim: Simulator, chain, position: int, server,
                 middlebox: Optional[Middlebox],
                 costs: CostModel = DEFAULT_COSTS,
                 streams: Optional[RandomStreams] = None,
                 use_htm: bool = False):
        self.sim = sim
        self.chain = chain
        self.position = position
        self.server = server
        self.middlebox = middlebox
        self.costs = costs
        self.streams = streams or RandomStreams(0)
        self.telemetry = getattr(chain, "telemetry", None) or NULL_TELEMETRY
        self._prof = self.telemetry.profiler
        registry = self.telemetry.registry
        self._m_pb_bytes = registry.histogram("piggyback/bytes")

        #: mbox name -> replication state, for every group this position
        #: belongs to (including its own middlebox's).
        self.states: Dict[str, ReplicationState] = {}
        #: mboxes for which this position is the tail, with the MAX
        #: snapshot last announced (commit vectors are deltas).
        self.tail_last_sent: Dict[str, Dict[int, int]] = {}
        #: mboxes replicated here that originate upstream (chain order).
        self.replicated: List[str] = []

        telemetry = self.telemetry if self.telemetry.enabled else None
        for index, name in chain.member_mboxes(position):
            state = ReplicationState(name, costs.n_partitions,
                                     telemetry=telemetry)
            self.states[name] = state
            if chain.tail_position(index) == position:
                self.tail_last_sent[name] = {}
            if middlebox is None or name != middlebox.name:
                self.replicated.append(name)

        self.runtime: Optional[MiddleboxRuntime] = None
        if middlebox is not None:
            self.runtime = MiddleboxRuntime(
                sim, middlebox, self.states[middlebox.name],
                costs=costs, streams=self.streams, use_htm=use_htm,
                telemetry=self.telemetry)

        self.workers: List[Process] = []
        self._watchdog: Optional[Process] = None
        #: Workers currently inside _handle (reconfig drains poll this).
        self.busy = 0
        self.packets_handled = 0
        self.propagating_emitted = 0
        self.retransmit_requests = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        for tid, queue in enumerate(self.server.nic.queues):
            worker = self.sim.process(self._worker(tid, queue),
                                      name=f"replica{self.position}/w{tid}")
            self.workers.append(worker)
        self._watchdog = self.sim.process(
            self._retransmit_watchdog(), name=f"replica{self.position}/rtx")

    def stop(self) -> None:
        for worker in self.workers:
            if worker.is_alive:
                worker.interrupt("stopped")
        if self._watchdog is not None and self._watchdog.is_alive:
            self._watchdog.interrupt("stopped")
        self.workers = []
        self._watchdog = None

    # -- ingestion helpers -----------------------------------------------------

    def enqueue_local(self, packet: Packet) -> bool:
        """Inject a locally generated packet (propagating) into a queue.

        Returns False when the queue refused it (full under overload);
        the caller owns the packet's fate -- the chain re-absorbs a
        propagating packet's logs rather than losing them.
        """
        queue_index = self.server.nic.queue_for(packet)
        return self.server.nic.queues[queue_index].try_put(packet)

    # -- the worker pipeline ------------------------------------------------------

    def _worker(self, thread_id: int, queue):
        try:
            while True:
                packet = yield queue.get()
                if self.server.failed:
                    return
                self.busy += 1
                try:
                    yield from self._handle(packet, thread_id)
                finally:
                    self.busy -= 1
        except (Interrupt, CancelledError):
            return

    def _handle(self, packet: Packet, thread_id: int):
        self.packets_handled += 1
        sim = self.sim
        costs = self.costs
        chain = self.chain
        telemetry = self.telemetry
        position = self.position
        kind = packet.kind
        is_data = kind == "data"
        traced = (telemetry.enabled and is_data
                  and telemetry.tracer.wants(packet.pid))
        entered = sim.now
        # Packet.wire_size and detach("ftc") in one pass over what the
        # packet carries (the sizes are still asked of each attachment).
        attachments = packet.attachments
        wire_bytes = packet.size
        for attachment in attachments.values():
            wire_bytes += attachment.byte_size()
        cycles = costs.per_wire_byte_cycles * wire_bytes
        message = attachments.pop("ftc", None)
        if message is None:
            message = PiggybackMessage(costs)

        if position == 0 and kind != "feedback":
            cycles += chain.forwarder.attach(message)

        cycles += self._process_piggyback(message)
        if cycles > 0:
            yield Timeout(sim, cycles / costs.cpu_hz)

        out_packet = packet
        if self.runtime is not None and is_data:
            verdict, log = yield from self.runtime.process(packet, thread_id)
            if log is not None and not log.is_noop:
                message.add_log(log)
            own = self.middlebox.name
            if own in self.tail_last_sent:
                # f = 0: the head is its own tail -- the log is already
                # replicated f+1 = 1 times, so strip it and commit.
                message.take_logs(own)
                state = self.states[own]
                commit = state.commit_vector(last_sent=self.tail_last_sent[own])
                if commit.entries:
                    message.set_commit(commit)
                    self.tail_last_sent[own] = dict(state.max)
            if verdict is DROP:
                if traced:
                    self._close_span(packet, entered, dropped=True)
                self._emit_propagating(message)
                return
            if isinstance(verdict, Packet):
                out_packet = verdict

        pb_bytes = message.byte_size()
        if telemetry.enabled:
            self._m_pb_bytes.observe(float(pb_bytes), t=sim.now)
        if traced:
            self._close_span(packet, entered)
        if pb_bytes > out_packet.size:
            # The piggyback message no longer fits the packet buffer's
            # tailroom: extend/chain the buffer before forwarding.
            yield Timeout(sim, costs.mbuf_extension_cycles / costs.cpu_hz)
        if position == chain.n_positions - 1:
            yield Timeout(sim, chain.buffer.handle(out_packet, message)
                          / costs.cpu_hz)
        else:
            out_packet.attachments["ftc"] = message
            chain.send_to_position(position, position + 1, out_packet)

    def _close_span(self, packet: Packet, entered: float,
                    dropped: bool = False) -> None:
        """Emit the per-position middlebox span for a sampled packet."""
        name = self.middlebox.name if self.middlebox is not None else "relay"
        self.telemetry.tracer.complete(
            packet.pid, f"p{self.position}:{name}", "mbox",
            entered, self.sim.now, tid=self.position, dropped=dropped)

    def _process_piggyback(self, message: PiggybackMessage) -> float:
        """Apply carried logs; strip + commit where we are the tail."""
        cycles = 0.0
        costs = self.costs
        apply_cycles = costs.piggyback_apply_cycles
        per_byte_cycles = costs.per_state_byte_cycles
        now = self.sim.now
        states = self.states
        tail_last_sent = self.tail_last_sent
        telemetry = self.telemetry
        listening = telemetry.enabled or telemetry.flight.enabled
        prof = self._prof
        carried = message.logs
        for mbox in self.replicated:
            logs = carried.get(mbox)
            if logs:
                offer = states[mbox].offer
                # offer() never touches message.logs, so iterate the
                # live list -- no per-packet throwaway copy.
                for log in logs:
                    cycles += (apply_cycles +
                               per_byte_cycles * log.state_bytes(costs))
                    offer(log, now)
                    if listening:
                        self._note_applied(log, mbox, now)
                if prof.enabled:
                    prof.count("depvec/merge", len(logs))
            if mbox in tail_last_sent:
                if logs is not None:
                    message.take_logs(mbox)
                state = states[mbox]
                commit = state.commit_vector(tail_last_sent[mbox])
                if commit.entries:
                    message.set_commit(commit)
                    tail_last_sent[mbox] = dict(state.max)
                if prof.enabled:
                    prof.count("piggyback/trim")
        commits = message.commits
        if commits:
            for mbox, commit in commits.items():
                state = states.get(mbox)
                if state is not None:
                    state.absorb_commit(commit)
            if prof.enabled:
                prof.count("piggyback/trim")
        return cycles

    def _note_applied(self, log, mbox: str, now: float) -> None:
        """Tell the tracer / flight recorder one log was offered here
        (only reached when one of them is on)."""
        pid = log.packet_id
        if pid is None:
            return
        telemetry = self.telemetry
        if telemetry.enabled and telemetry.tracer.wants(pid):
            telemetry.tracer.instant(pid, f"replicate@p{self.position}",
                                     "repl", now, tid=self.position,
                                     mbox=mbox)
        flight = telemetry.flight
        if flight.enabled:
            flight.record(
                "piggyback", "apply", t=now, pid=pid,
                depvec=dict(log.depvec),
                detail=f"{mbox} @p{self.position}", chain=f"pid:{pid}")

    def _emit_propagating(self, message: PiggybackMessage) -> None:
        """Carry a filtered packet's piggyback message onward (§5.1)."""
        if message.n_logs == 0 and not message.commits:
            return
        packet = Packet(flow=_PROPAGATING_FLOW, size=_PROPAGATING_SIZE,
                        kind="propagating", created_at=self.sim.now)
        packet.attach("ftc", message)
        self.propagating_emitted += 1
        if self.position == self.chain.n_positions - 1:
            self.chain.buffer.handle(packet, packet.detach("ftc"))
        else:
            self.chain.send_to_position(self.position, self.position + 1, packet)
        return

    # -- retransmission (§4.1 reliable state transmission) ---------------------

    def _retransmit_watchdog(self):
        try:
            while True:
                yield self.sim.timeout(RETRANSMIT_CHECK_S)
                if self.server.failed:
                    return
                for mbox in self.replicated:
                    state = self.states[mbox]
                    if state.pending and not state.frozen:
                        oldest = min(state._held_at)
                        if self.sim.now - oldest >= RETRANSMIT_AFTER_S:
                            yield from self._request_retransmission(mbox)
        except (Interrupt, CancelledError):
            return

    def _request_retransmission(self, mbox: str):
        """Fetch the predecessor's retained logs to fill a gap."""
        self.retransmit_requests += 1
        logs = yield from self.chain.fetch_retained_logs(self.position, mbox)
        if logs:
            self.states[mbox].offer_all(logs, now=self.sim.now)
