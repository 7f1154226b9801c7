"""Tests for links and the multi-queue NIC model."""

from repro.net import FlowKey, Link, LossyLink, NIC, Packet
from repro.net.nic import DEFAULT_QUEUE_DEPTH
from repro.sim import Simulator


def _pkt(size=256, sport=1000):
    return Packet(flow=FlowKey(1, 2, sport, 80), size=size)


class TestLink:
    def test_delivers_after_delay_and_serialization(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, lambda p: arrivals.append((sim.now, p)),
                    delay_s=10e-6, bandwidth_bps=40e9)
        pkt = _pkt(size=500)
        link.send(pkt)
        sim.run()
        expected = 10e-6 + 500 * 8 / 40e9
        assert len(arrivals) == 1
        assert abs(arrivals[0][0] - expected) < 1e-12

    def test_fifo_no_overtaking(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, lambda p: arrivals.append(p.pid), delay_s=1e-6)
        small, big = _pkt(size=64), _pkt(size=9000)
        link.send(big)
        link.send(small)
        sim.run()
        assert arrivals == [big.pid, small.pid]

    def test_serialization_queues_back_to_back(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, lambda p: arrivals.append(sim.now),
                    delay_s=0.0, bandwidth_bps=8e6)  # 1 byte/us
        for _ in range(3):
            link.send(_pkt(size=100))
        sim.run()
        deltas = [arrivals[i + 1] - arrivals[i] for i in range(2)]
        assert all(abs(d - 100e-6) < 1e-9 for d in deltas)

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, lambda p: None)
        link.send(_pkt(size=100))
        link.send(_pkt(size=200))
        assert link.tx_packets == 2
        assert link.tx_bytes == 300

    def test_lossy_link_drop_every(self):
        sim = Simulator()
        arrivals = []
        link = LossyLink(sim, lambda p: arrivals.append(p), drop_every=3)
        for _ in range(9):
            link.send(_pkt())
        sim.run()
        assert len(arrivals) == 6
        assert link.dropped == 3

    def test_lossy_link_drop_fn(self):
        sim = Simulator()
        arrivals = []
        link = LossyLink(sim, lambda p: arrivals.append(p),
                         drop_fn=lambda p: p.size > 1000)
        link.send(_pkt(size=1500))
        link.send(_pkt(size=100))
        sim.run()
        assert len(arrivals) == 1 and arrivals[0].size == 100
        assert link.dropped == 1


class TestNIC:
    def test_rss_spreads_flows(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=4)
        seen_queues = set()
        for sport in range(100):
            seen_queues.add(nic.queue_for(_pkt(sport=sport)))
        assert seen_queues == {0, 1, 2, 3}

    def test_same_flow_same_queue(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=8)
        first = nic.queue_for(_pkt(sport=42))
        for _ in range(10):
            assert nic.queue_for(_pkt(sport=42)) == first

    def test_engine_rate_cap(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=1, pps_capacity=1e6)
        for _ in range(100):
            nic.receive(_pkt())
        sim.run()
        # 100 packets at 1 Mpps = 100 us for the last enqueue.
        assert abs(sim.now - 100e-6) < 1e-9
        assert nic.rx_packets == 100

    def test_queue_overflow_drops(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=1, pps_capacity=1e9, queue_depth=10)
        for _ in range(25):
            nic.receive(_pkt())
        sim.run()
        assert nic.rx_packets == 10
        assert nic.rx_dropped == 15

    def test_consumption_frees_queue_space(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=1, pps_capacity=1e9, queue_depth=10)
        consumed = []

        def consumer(sim):
            while True:
                pkt = yield nic.queues[0].get()
                consumed.append(pkt)
                yield sim.timeout(1e-9)

        sim.process(consumer(sim))
        for _ in range(25):
            nic.receive(_pkt())
        sim.run(until=1.0)
        assert len(consumed) + nic.depth(0) + nic.rx_dropped == 25
        assert nic.rx_dropped < 15  # consumer freed space

    def test_depth_total(self):
        sim = Simulator()
        nic = NIC(sim, n_queues=2, pps_capacity=1e9)
        for sport in range(10):
            nic.receive(_pkt(sport=sport))
        sim.run()
        assert nic.depth() == 10

    def test_default_queue_depth_is_ring_sized(self):
        assert DEFAULT_QUEUE_DEPTH == 4096
