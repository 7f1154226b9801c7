"""Focused tests for replica pipeline details and chain mechanics."""

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import Firewall, Gen, Monitor
from repro.net import FlowKey, Packet, TrafficGenerator, balanced_flows
from repro.sim import Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


def build(sim, middleboxes, f=1, n_threads=2, **kwargs):
    egress = EgressRecorder(sim, keep_packets=True)
    chain = FTCChain(sim, middleboxes, f=f, deliver=egress,
                     costs=FAST_COSTS, n_threads=n_threads, **kwargs)
    chain.start()
    return chain, egress


class TestReplicaRoles:
    def test_membership_matrix(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name=f"m{i}", n_threads=2)
                               for i in range(4)], f=1)
        # Position p replicates its own middlebox and its predecessor's.
        for position in range(4):
            replica = chain.replica_at(position)
            expected = {f"m{position}", f"m{(position - 1) % 4}"}
            assert set(replica.states) == expected

    def test_tail_roles(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name=f"m{i}", n_threads=2)
                               for i in range(3)], f=1)
        for position in range(3):
            replica = chain.replica_at(position)
            assert set(replica.tail_last_sent) == {f"m{(position - 1) % 3}"}

    def test_extension_replica_replicates_without_middlebox(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m", n_threads=2)], f=2)
        ext = chain.replica_at(1)
        assert ext.middlebox is None
        assert ext.runtime is None
        assert set(ext.states) == {"m"}
        assert ext.replicated == ["m"]

    def test_f_zero_head_is_tail(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m", n_threads=2),
                               Monitor(name="m2", n_threads=2)], f=0)
        assert set(chain.replica_at(0).tail_last_sent) == {"m"}
        assert chain.replica_at(0).replicated == []


class TestPiggybackFlow:
    def test_message_stripped_before_delivery(self):
        sim = Simulator()
        chain, egress = build(sim, [Monitor(name="m", n_threads=2),
                                    Monitor(name="m2", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=50)
        sim.run(until=0.01)
        assert egress.count == 50
        assert all(p.attachment("ftc") is None for p in egress.packets)

    def test_wire_size_grows_midchain(self):
        """Packets between replicas carry logs; measure via link bytes."""
        sim = Simulator()
        chain, _ = build(sim, [Gen(name="g1", state_size=100),
                               Gen(name="g2", state_size=100)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=100,
                         packet_size=256)
        sim.run(until=0.01)
        link = chain.net.link(chain.route[0], chain.route[1])
        # Each mid-chain packet carries >= one 100 B state update.
        assert link.tx_bytes / link.tx_packets > 256 + 100

    def test_noop_logs_add_no_bytes(self):
        """A stateless middlebox's packets carry no log for it."""
        sim = Simulator()
        chain, _ = build(sim, [Firewall(name="fw"),
                               Monitor(name="m", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=100)
        sim.run(until=0.01)
        assert chain.replica_at(1).states["fw"].applied == 0

    def test_commit_vectors_prune_at_head(self):
        """The head's retained logs shrink once commits loop back."""
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m1", n_threads=2),
                               Monitor(name="m2", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=500)
        sim.run(until=0.02)
        head_state = chain.replica_at(0).states["m1"]
        assert head_state.applied == 500
        assert len(head_state.retained) < 100


class TestBackpressureAndOverload:
    def test_overload_drops_at_nic_not_in_protocol(self):
        """Under 3x overload the NIC drops, but everything that enters
        the chain is either released or still consistent."""
        sim = Simulator()
        chain, egress = build(sim, [Monitor(name="m", n_threads=1)],
                              n_threads=1)
        TrafficGenerator(sim, chain.ingress, rate_pps=10e6,
                         flows=balanced_flows(4, 1))
        sim.run(until=0.005)
        first_server = chain.server_at(0)
        assert first_server.nic.rx_dropped > 0
        # Consistency despite overload:
        monitor = chain.middleboxes[0]
        for pos in chain.group_positions(0):
            count = monitor.total_count(chain.store_of("m", pos))
            assert count >= chain.total_released()

    def test_latency_spikes_past_saturation(self):
        sim = Simulator()
        chain, egress = build(sim, [Monitor(name="m", n_threads=1)],
                              n_threads=1)
        TrafficGenerator(sim, chain.ingress, rate_pps=10e6,
                         flows=balanced_flows(4, 1))
        sim.run(until=0.004)
        # Queues full: latency far above the unloaded floor (~15 us).
        assert egress.latency.percentile_us(99) > 100


class TestPacketKinds:
    def test_feedback_packets_not_counted_as_traffic(self):
        sim = Simulator()
        chain, egress = build(sim, [Monitor(name="m1", n_threads=2),
                                    Monitor(name="m2", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=100)
        sim.run(until=0.02)
        assert egress.count == 100
        assert chain.forwarder.feedback_received > 0

    def test_propagating_after_burst_only_when_needed(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m1", n_threads=2),
                               Monitor(name="m2", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=20)
        sim.run(until=0.05)
        assert chain.total_released() == 20
        # Once everything is flushed, the timer stops emitting.
        sent_after_flush = chain.forwarder.propagating_sent
        sim.run(until=0.1)
        assert chain.forwarder.propagating_sent <= sent_after_flush + 1


class TestChainStatistics:
    def test_packets_in_counts_ingress(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=77)
        sim.run(until=0.01)
        assert chain.packets_in == 77

    def test_stop_halts_workers(self):
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m", n_threads=2)])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=50)
        sim.run(until=0.005)
        released_at_stop = chain.total_released()
        chain.stop()
        chain.ingress(Packet(flow=FlowKey(1, 2, 3, 4), created_at=sim.now))
        sim.run(until=0.01)
        assert chain.total_released() == released_at_stop
