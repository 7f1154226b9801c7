"""Bidirectional traffic through a fault-tolerant NAT chain.

Return traffic must match the forward mappings (connection
persistence, §3.2) through the full FTC pipeline -- including after
the reverse-path entries were only ever created as *replicated* state.
"""

from repro.core import FTCChain, recover_positions
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import MazuNAT, Monitor
from repro.net import FlowKey, Packet, ip
from repro.sim import Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


def _build(sim):
    egress = EgressRecorder(sim, keep_packets=True)
    chain = FTCChain(sim, [MazuNAT(name="nat"),
                           Monitor(name="mon", n_threads=2)],
                     f=1, deliver=egress, costs=FAST_COSTS, n_threads=2)
    chain.start()
    return chain, egress


def _outbound_flow(sport):
    return FlowKey(ip("10.0.0.5"), ip("8.8.8.8"), sport, 80)


class TestBidirectionalNAT:
    def test_replies_translate_back(self):
        sim = Simulator()
        chain, egress = _build(sim)

        def scenario(sim):
            # Outbound packets establish two mappings.
            for sport in (1111, 2222):
                chain.ingress(Packet(flow=_outbound_flow(sport),
                                     created_at=sim.now))
            yield sim.timeout(1e-3)
            # Replies arrive addressed to the NAT's external side.
            translated = [p for p in egress.packets]
            assert len(translated) == 2
            for out in translated:
                chain.ingress(Packet(flow=out.flow.reversed(),
                                     created_at=sim.now))
            yield sim.timeout(1e-3)

        done = sim.process(scenario(sim))
        sim.run(until=0.02)
        assert done.ok
        # 2 outbound + 2 inbound released; inbound carry internal dst.
        assert egress.count == 4
        inbound = [p for p in egress.packets
                   if p.flow.dst_ip == ip("10.0.0.5")]
        assert sorted(p.flow.dst_port for p in inbound) == [1111, 2222]

    def test_replies_survive_nat_failover(self):
        """Reverse mappings recovered from the replica still translate."""
        sim = Simulator()
        chain, egress = _build(sim)

        def scenario(sim):
            chain.ingress(Packet(flow=_outbound_flow(3333),
                                 created_at=sim.now))
            yield sim.timeout(1e-3)
            (outbound,) = list(egress.packets)
            # Kill the NAT's server; recover from its replica.
            chain.fail_position(0)
            yield sim.process(recover_positions(chain, [0]))
            yield sim.timeout(0.5e-3)
            chain.ingress(Packet(flow=outbound.flow.reversed(),
                                 created_at=sim.now))
            yield sim.timeout(1.5e-3)

        done = sim.process(scenario(sim))
        sim.run(until=0.03)
        assert done.ok
        inbound = [p for p in egress.packets
                   if p.flow.dst_ip == ip("10.0.0.5")]
        assert len(inbound) == 1
        assert inbound[0].flow.dst_port == 3333
