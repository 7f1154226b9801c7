"""End-to-end: flow churn, state eviction, and tombstone replication.

A stateful firewall under connection churn both inserts and *deletes*
state (idle-timeout eviction); deletions travel through piggyback logs
as tombstones and must replicate exactly like writes.
"""

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import Monitor, StatefulFirewall
from repro.net import FlowChurnGenerator, FlowKey, Packet, ip
from repro.sim import RandomStreams, Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


class TestChurnThroughChain:
    def test_churn_traffic_replicates_consistently(self):
        sim = Simulator()
        egress = EgressRecorder(sim)
        chain = FTCChain(
            sim,
            [StatefulFirewall(name="sfw"),
             Monitor(name="mon", n_threads=2)],
            f=1, deliver=egress, costs=FAST_COSTS, n_threads=2)
        chain.start()
        gen = FlowChurnGenerator(sim, chain.ingress,
                                 flow_arrival_rate=3000,
                                 flow_lifetime_s=2e-3,
                                 per_flow_pps=50_000,
                                 streams=RandomStreams(7))
        sim.run(until=0.02)
        gen.stop()
        sim.run(until=0.03)
        assert chain.total_released() > 100
        for name, index in (("sfw", 0), ("mon", 1)):
            stores = [chain.store_of(name, pos)
                      for pos in chain.group_positions(index)]
            assert stores[0] == stores[1]
        # Firewall tracked many distinct connections.
        assert len(chain.store_of("sfw", 0)) > 20

    def test_tombstone_deletion_replicates(self):
        """An idle-timeout eviction at the head must delete the entry
        at every replica, not just locally."""
        sim = Simulator()
        egress = EgressRecorder(sim)
        fw = StatefulFirewall(name="sfw", idle_timeout_s=1e-3)
        chain = FTCChain(sim, [fw, Monitor(name="mon", n_threads=2)],
                         f=1, deliver=egress, costs=FAST_COSTS, n_threads=2)
        chain.start()

        outbound = FlowKey(ip("10.0.0.9"), ip("8.8.8.8"), 1234, 80)

        def scenario(sim):
            # Establish the connection.
            chain.ingress(Packet(flow=outbound, created_at=sim.now))
            yield sim.timeout(0.5e-3)
            group = chain.group_positions(0)
            assert all(("conn", outbound) in chain.store_of("sfw", pos)
                       for pos in group)
            # Idle past the timeout, then inbound traffic triggers the
            # eviction (a ctx.delete -> tombstone in the piggyback log).
            yield sim.timeout(2e-3)
            chain.ingress(Packet(flow=outbound.reversed(),
                                 created_at=sim.now))
            yield sim.timeout(2e-3)
            for pos in group:
                assert ("conn", outbound) not in chain.store_of("sfw", pos)

        done = sim.process(scenario(sim))
        sim.run(until=0.02)
        assert done.ok

    def test_dropped_inbound_state_still_replicates(self):
        """The eviction above happens on a DROPPED packet: its tombstone
        must ride a propagating packet (§5.1) to the replicas."""
        sim = Simulator()
        fw = StatefulFirewall(name="sfw", idle_timeout_s=1e-3)
        chain = FTCChain(sim, [fw, Monitor(name="mon", n_threads=2)],
                         f=1, costs=FAST_COSTS, n_threads=2)
        chain.start()
        outbound = FlowKey(ip("10.0.0.9"), ip("8.8.8.8"), 1234, 80)

        def scenario(sim):
            chain.ingress(Packet(flow=outbound, created_at=sim.now))
            yield sim.timeout(3e-3)  # idle out
            chain.ingress(Packet(flow=outbound.reversed(),
                                 created_at=sim.now))
            yield sim.timeout(3e-3)

        sim.process(scenario(sim))
        sim.run(until=0.02)
        assert fw.packets_dropped >= 1
        assert chain.replica_at(0).propagating_emitted >= 1
