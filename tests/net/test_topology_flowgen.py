"""Tests for servers, the network fabric, and traffic generation."""

import pytest

from repro.net import (
    FlowKey,
    Network,
    Packet,
    TrafficGenerator,
    balanced_flows,
)
from repro.net.topology import DEFAULT_CPU_HZ
from repro.sim import RandomStreams, Simulator


def _two_server_net(sim):
    net = Network(sim)
    net.add_server("a")
    net.add_server("b")
    net.connect("a", "b")
    net.connect("b", "a")
    return net


class TestServer:
    def test_cycles_conversion(self):
        sim = Simulator()
        net = Network(sim)
        server = net.add_server("s", cpu_hz=2e9)
        assert server.cycles(2e9) == 1.0
        assert server.cycles(355) == pytest.approx(177.5e-9)

    def test_default_clock_matches_paper(self):
        assert DEFAULT_CPU_HZ == 2.0e9

    def test_fail_and_restore(self):
        sim = Simulator()
        net = Network(sim)
        server = net.add_server("s")
        server.fail()
        assert server.failed
        server.restore()
        assert not server.failed


class TestNetwork:
    def test_duplicate_server_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.add_server("a")
        with pytest.raises(ValueError):
            net.add_server("a")

    def test_send_delivers_to_nic(self):
        sim = Simulator()
        net = _two_server_net(sim)
        net.send("a", "b", Packet(flow=FlowKey(1, 2, 3, 4)))
        sim.run()
        assert net.servers["b"].nic.rx_packets == 1

    def test_send_without_link_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.add_server("a")
        net.add_server("b")
        with pytest.raises(KeyError):
            net.send("a", "b", Packet(flow=FlowKey(1, 2, 3, 4)))

    def test_failed_destination_drops(self):
        sim = Simulator()
        net = _two_server_net(sim)
        net.servers["b"].fail()
        net.send("a", "b", Packet(flow=FlowKey(1, 2, 3, 4)))
        sim.run()
        assert net.servers["b"].nic.rx_packets == 0
        assert net.dropped_to_failed == 1

    def test_failed_source_drops(self):
        sim = Simulator()
        net = _two_server_net(sim)
        net.servers["a"].fail()
        net.send("a", "b", Packet(flow=FlowKey(1, 2, 3, 4)))
        sim.run()
        assert net.dropped_to_failed == 1

    def test_deliver_external(self):
        sim = Simulator()
        net = _two_server_net(sim)
        net.deliver_external("a", Packet(flow=FlowKey(1, 2, 3, 4)))
        sim.run()
        assert net.servers["a"].nic.rx_packets == 1

    def test_control_call_round_trip(self):
        sim = Simulator()
        net = _two_server_net(sim)
        results = []

        def caller(sim):
            value = yield net.control_call("a", "b", lambda: "pong")
            results.append((sim.now, value))

        sim.process(caller(sim))
        sim.run()
        assert results and results[0][1] == "pong"
        assert results[0][0] >= net.control_rtt("a", "b")

    def test_control_call_to_failed_server_never_returns(self):
        sim = Simulator()
        net = _two_server_net(sim)
        net.servers["b"].fail()
        event = net.control_call("a", "b", lambda: "pong")
        sim.run()
        assert not event.triggered


class TestBalancedFlows:
    def test_even_spread(self):
        flows = balanced_flows(32, 8)
        counts = [0] * 8
        for flow in flows:
            counts[flow.rss_hash() % 8] += 1
        assert counts == [4] * 8

    def test_flows_distinct(self):
        flows = balanced_flows(64, 4)
        assert len(set(flows)) == 64

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            balanced_flows(0, 4)


class TestTrafficGenerator:
    def test_deterministic_rate(self):
        sim = Simulator()
        received = []
        TrafficGenerator(sim, received.append, rate_pps=1000,
                         flows=balanced_flows(4, 1), count=10)
        sim.run()
        assert len(received) == 10
        assert received[-1].created_at == pytest.approx(0.010)

    def test_round_robin_over_flows(self):
        sim = Simulator()
        received = []
        flows = balanced_flows(3, 1)
        TrafficGenerator(sim, received.append, rate_pps=1e6,
                         flows=flows, count=6)
        sim.run()
        assert [p.flow for p in received] == flows + flows

    def test_poisson_arrivals_reproducible(self):
        def run(seed):
            sim = Simulator()
            stamps = []
            TrafficGenerator(sim, lambda p: stamps.append(p.created_at),
                             rate_pps=1e5, flows=balanced_flows(2, 1),
                             count=20, arrivals="poisson",
                             streams=RandomStreams(seed))
            sim.run()
            return stamps

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_poisson_mean_rate_close(self):
        sim = Simulator()
        count = 2000
        TrafficGenerator(sim, lambda p: None, rate_pps=1e6,
                         flows=balanced_flows(2, 1), count=count,
                         arrivals="poisson", streams=RandomStreams(1))
        sim.run()
        # Elapsed time should be close to count/rate.
        assert sim.now == pytest.approx(count / 1e6, rel=0.15)

    def test_stop_halts_emission(self):
        sim = Simulator()
        received = []
        gen = TrafficGenerator(sim, received.append, rate_pps=1000,
                               flows=balanced_flows(2, 1))
        sim.schedule_callback(0.0055, gen.stop)
        sim.run()
        assert len(received) == 5

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrafficGenerator(sim, lambda p: None, rate_pps=0,
                             flows=balanced_flows(1, 1))
        with pytest.raises(ValueError):
            TrafficGenerator(sim, lambda p: None, rate_pps=1,
                             flows=balanced_flows(1, 1), arrivals="bursty")

    def test_packet_size_applied(self):
        sim = Simulator()
        received = []
        TrafficGenerator(sim, received.append, rate_pps=1000,
                         flows=balanced_flows(1, 1), packet_size=512, count=3)
        sim.run()
        assert all(p.size == 512 for p in received)
