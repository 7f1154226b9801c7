"""Tests for the per-hop reliable channel (sequencing + retransmission)."""

import random

from hypothesis import given, settings, strategies as st

from repro.net import DataImpairment, FlowKey, Link, Packet, ReliableChannel
from repro.net.channel import Frame
from repro.sim import Simulator


def _pkt(size=256, sport=1000):
    return Packet(flow=FlowKey(1, 2, sport, 80), size=size)


def _timed_sink(sim, arrivals):
    """Sink recording ``(arrival time, packet)``."""
    return lambda packet: arrivals.append((sim.now, packet))


class FlakyLink(Link):
    """Drops chosen transmissions by index (0-based, first copy only)."""

    def __init__(self, sim, sink, drop_nth=(), **kwargs):
        super().__init__(sim, sink, **kwargs)
        self._drop_nth = set(drop_nth)
        self._nth = 0

    def send(self, frame):
        n = self._nth
        self._nth += 1
        if n in self._drop_nth:
            self.tx_packets += 1
            self.tx_bytes += frame.wire_size
            return
        super().send(frame)


def _channel(sim, link, **kwargs):
    channel = ReliableChannel(sim, name="test-ch", **kwargs)
    channel.bind(link)
    return channel


class TestReliableChannel:
    def test_in_order_delivery_clean_link(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        channel = _channel(sim, link)
        packets = [_pkt() for _ in range(5)]
        for packet in packets:
            channel.send(packet)
        sim.run()
        assert arrivals == packets
        assert channel.delivered == 5
        assert channel.retransmissions == 0
        assert channel.inflight == 0

    def test_frame_carries_hop_header(self):
        pkt = _pkt(size=100)
        frame = Frame(0, 0, pkt, header_bytes=8)
        assert frame.wire_size == pkt.wire_size + 8

    def test_loss_repaired_by_nack_exactly_once_in_order(self):
        sim = Simulator()
        arrivals = []
        link = FlakyLink(sim, arrivals.append, drop_nth=(0,))
        channel = _channel(sim, link)
        packets = [_pkt() for _ in range(3)]
        for packet in packets:
            channel.send(packet)
        sim.run()
        assert arrivals == packets  # original order, nothing twice
        assert channel.retransmissions == 1
        assert channel.nacks_sent >= 1
        assert channel.inflight == 0

    def test_trailing_loss_repaired_by_timeout(self):
        sim = Simulator()
        arrivals = []
        link = FlakyLink(sim, arrivals.append, drop_nth=(0,))
        channel = _channel(sim, link)
        packet = _pkt()
        channel.send(packet)  # no later frame exposes the gap: RTO only
        sim.run()
        assert arrivals == [packet]
        assert channel.retransmissions >= 1
        assert channel.nacks_sent == 0
        assert channel.inflight == 0

    def test_duplicates_dropped(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        link.set_impairment(DataImpairment(dup_rate=1.0), random.Random(3))
        channel = _channel(sim, link)
        packets = [_pkt() for _ in range(4)]
        for packet in packets:
            channel.send(packet)
        sim.run()
        assert arrivals == packets
        assert channel.dup_dropped >= 4

    def test_reordering_restored(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        link.set_impairment(
            DataImpairment(reorder_rate=0.5, reorder_delay_s=100e-6),
            random.Random(5))
        channel = _channel(sim, link)
        packets = [_pkt() for _ in range(20)]
        for packet in packets:
            channel.send(packet)
        sim.run()
        assert arrivals == packets  # wire scrambled, egress in order
        assert link.impair_reordered > 0

    def test_corruption_recovered_like_loss(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        # Corrupt everything briefly; retransmissions sail through clean.
        link.set_impairment(
            DataImpairment(corrupt_rate=1.0, expires_at=1e-6),
            random.Random(5))
        channel = _channel(sim, link)
        packets = [_pkt() for _ in range(3)]
        for packet in packets:
            channel.send(packet)
        sim.run()
        assert arrivals == packets
        assert channel.corrupt_dropped == 3
        assert channel.retransmissions >= 3

    def test_window_backpressure(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        channel = _channel(sim, link, window=2)
        packets = [_pkt() for _ in range(5)]
        for packet in packets:
            channel.send(packet)
        assert channel.inflight == 2
        assert len(channel.txq) == 3
        assert channel.window_stalls == 3
        sim.run()  # ACKs open the window; queue drains in order
        assert arrivals == packets

    def test_epoch_fences_stale_frames(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        channel = _channel(sim, link)
        channel.send(_pkt())
        channel.reset()  # endpoint failed with the frame still in flight
        channel.bind(link)
        fresh = _pkt()
        channel.send(fresh)
        sim.run()
        assert arrivals == [fresh]
        assert channel.stale_dropped == 1
        assert channel.epoch == 1

    def test_unframed_traffic_passes_through(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        _channel(sim, link)
        raw = _pkt()
        link.send(raw)  # bypasses the channel sender entirely
        sim.run()
        assert arrivals == [raw]

    def test_bind_is_idempotent(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, arrivals.append)
        channel = _channel(sim, link)
        channel.bind(link)  # re-bind must not chain _on_wire onto itself
        channel.send(_pkt())
        sim.run()
        assert len(arrivals) == 1

    def test_stats_keys(self):
        sim = Simulator()
        link = Link(sim, lambda p: None)
        channel = _channel(sim, link)
        stats = channel.stats()
        for key in ("sent", "delivered", "retransmissions", "nacks_sent",
                    "dup_dropped", "corrupt_dropped", "stale_dropped",
                    "window_stalls", "inflight", "queued"):
            assert key in stats


class TestPerFlowDelivery:
    """A frame waits only for the earlier frames of its own flow."""

    def _lose_a0(self):
        """B0, A0, B1, A1 on one hop; A0's first copy is lost."""
        sim = Simulator()
        arrivals = []
        link = FlakyLink(sim, _timed_sink(sim, arrivals), drop_nth=(1,))
        channel = _channel(sim, link)
        b0, a0, b1, a1 = (_pkt(sport=2), _pkt(sport=1), _pkt(sport=2),
                          _pkt(sport=1))
        for packet in (b0, a0, b1, a1):
            channel.send(packet)
        sim.run()
        at = {packet.pid: t for t, packet in arrivals}
        return channel, arrivals, at, (b0, a0, b1, a1)

    def test_a_loss_on_one_flow_does_not_delay_another(self):
        channel, arrivals, at, (b0, a0, b1, a1) = self._lose_a0()
        assert [packet for _t, packet in arrivals] == [b0, b1, a0, a1]
        assert at[b1.pid] - at[b0.pid] < 1e-6    # back to back, no wait
        assert at[a0.pid] - at[b1.pid] > 10e-6   # a NACK round trip later
        assert channel.retransmissions == 1

    def test_later_frames_of_the_lossy_flow_wait_for_the_repair(self):
        channel, _arrivals, at, (_b0, a0, _b1, a1) = self._lose_a0()
        assert at[a1.pid] == at[a0.pid]          # parked, released with it
        assert channel.ooo_held_peak == 1
        assert channel.next_expected == 4        # stepped over B1

    def test_a_predecessor_beyond_255_waits_for_every_earlier_sequence(self):
        sim = Simulator()
        arrivals = []
        link = FlakyLink(sim, _timed_sink(sim, arrivals), drop_nth=(10,))
        channel = _channel(sim, link)
        d0, e0 = _pkt(sport=4), _pkt(sport=5)
        filler = [_pkt(sport=6) for _ in range(254)]   # seqs 2..255
        e1, d1 = _pkt(sport=5), _pkt(sport=4)          # 255 and 257 back
        for packet in (d0, e0, *filler, e1, d1):
            channel.send(packet)
        sim.run()
        at = {packet.pid: t for t, packet in arrivals}
        repaired = filler[8]                           # seq 10
        assert at[e1.pid] < at[repaired.pid] == at[d1.pid]
        assert len(arrivals) == len(at) == 258
        assert channel.reorder_dropped == 0

    def test_one_loss_costs_one_retransmission_when_others_went_ahead(self):
        """The NACK is lost with every ACK leg of the first 10 us, so
        the RTO repairs A0; B's frames delivered ahead of it meanwhile
        were SACKed and are not sent again."""
        sim = Simulator()
        arrivals = []
        link = FlakyLink(sim, arrivals.append, drop_nth=(1,))
        channel = _channel(sim, link, loss_fn=lambda: sim.now < 10e-6)
        b = [_pkt(sport=2) for _ in range(4)]
        a0 = _pkt(sport=1)
        for packet in (b[0], a0, *b[1:]):
            channel.send(packet)
        sim.run()
        assert arrivals == [*b, a0]
        assert channel.nacks_sent >= 1
        assert channel.retransmissions == 1

    def test_a_held_gap_bounds_how_far_other_flows_go_ahead(self):
        """Every copy of A0 is lost for 1 ms under a window of 8 while B
        keeps sending: B goes ahead of the gap by fewer than window +
        reorder_cap sequences, the rest is dropped and re-offered, and
        the received-ahead set stays that small."""

        class GapLink(Link):
            def send(self, frame):
                if frame.seq != 1 or self.sim.now >= 1e-3:
                    super().send(frame)

        sim = Simulator()
        arrivals, ahead_peak = [], [0]

        def sink(packet):
            arrivals.append(packet)
            ahead = len(channel._ahead) + len(channel.ooo)
            ahead_peak[0] = max(ahead_peak[0], ahead)

        channel = _channel(sim, GapLink(sim, sink), window=8, reorder_cap=4)
        b = [_pkt(sport=2) for _ in range(60)]
        a0 = _pkt(sport=1)
        for packet in (b[0], a0, *b[1:]):
            channel.send(packet)
        sim.run()
        assert [p for p in arrivals if p is not a0] == b
        assert arrivals.count(a0) == 1 and len(arrivals) == 61
        assert 0 < ahead_peak[0] < 8 + 4
        assert channel.reorder_dropped > 0


class _FlowOrderModel:
    """What a hop may hand up, judged from the send order alone: every
    packet sent, each once, none before an earlier packet of its flow."""

    def __init__(self):
        self.sent = []
        self.delivered = set()
        self.violations = []

    def on_send(self, packet):
        self.sent.append(packet)

    def on_deliver(self, packet):
        if packet.pid in self.delivered:
            self.violations.append(("twice", packet.pid))
        if all(sent is not packet for sent in self.sent):
            self.violations.append(("never sent", packet.pid))
        for earlier in self.sent:
            if earlier is packet:
                break
            if (earlier.flow == packet.flow
                    and earlier.pid not in self.delivered):
                self.violations.append(("overtook", earlier.pid, packet.pid))
        self.delivered.add(packet.pid)

    def missing(self):
        return [p.pid for p in self.sent if p.pid not in self.delivered]


_rates = st.sampled_from([0.0, 0.02, 0.1, 0.3])


@st.composite
def _hop_runs(draw):
    """Sends over up to eight flows with gaps between them, an impaired
    wire, lossy ACK/NACK legs, and small windows and parking bays."""
    n_flows = draw(st.integers(1, 8))
    sends = draw(st.lists(
        st.tuples(st.integers(0, n_flows - 1),
                  st.sampled_from([0.0, 0.5e-6, 3e-6, 20e-6])),
        min_size=1, max_size=120))
    impairment = DataImpairment(
        drop_rate=draw(_rates), dup_rate=draw(_rates),
        reorder_rate=draw(_rates), corrupt_rate=draw(_rates))
    return dict(sends=sends, impairment=impairment, leg_loss=draw(_rates),
                window=draw(st.sampled_from([4, 64, 512])),
                reorder_cap=draw(st.sampled_from([2, 16, 256])),
                seed=draw(st.integers(0, 2 ** 16)))


class TestAgainstFlowOrderModel:
    @settings(max_examples=120, deadline=None)
    @given(_hop_runs())
    def test_exactly_once_in_flow_order_and_complete(self, run):
        sim = Simulator()
        model = _FlowOrderModel()
        link = Link(sim, model.on_deliver)
        link.set_impairment(run["impairment"], random.Random(run["seed"]))
        legs = random.Random(run["seed"] + 1)
        channel = _channel(sim, link, window=run["window"],
                           reorder_cap=run["reorder_cap"],
                           loss_fn=lambda: legs.random() < run["leg_loss"])
        at = 0.0
        for flow, gap in run["sends"]:
            at += gap
            packet = _pkt(sport=flow)

            def send(packet=packet):
                model.on_send(packet)
                channel.send(packet)

            sim.schedule_callback(at, send)
        sim.run()
        assert model.violations == []
        assert model.missing() == []
        assert channel.delivered == len(run["sends"])
        assert channel.inflight == 0 and not channel.txq
