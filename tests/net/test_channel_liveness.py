"""A reliable hop must never acknowledge for a dead receiver.

The link drops whatever arrives at a failed server before any sink --
the network's NIC sink or a :class:`ReliableChannel` bound on top --
sees it, so a crashed replica's hop stops ACKing and its sender keeps
the frames outstanding (PROTOCOL.md section 8).
"""

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.core.recovery import recover_positions
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.net import FlowKey, Network, Packet, ReliableChannel
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)


def _pkt(sport=1000):
    return Packet(flow=FlowKey(1, 2, sport, 80), size=256)


def _hop(sim):
    """Two servers, one link a -> b, a channel bound on it."""
    net = Network(sim)
    net.add_server("a")
    net.add_server("b")
    link = net.connect("a", "b")
    channel = ReliableChannel(sim, name="a->b")
    channel.bind(link)
    return net, channel


class TestDeadReceiver:
    def test_live_receiver_acks_everything(self):
        sim = Simulator()
        net, channel = _hop(sim)
        for sport in range(5):
            channel.send(_pkt(sport))
        sim.run(until=1e-3)
        assert channel.delivered == 5
        assert channel.inflight == 0
        assert net.dropped_to_failed == 0

    def test_failed_receiver_never_acks(self):
        sim = Simulator()
        net, channel = _hop(sim)
        net.servers["b"].fail()
        for sport in range(5):
            channel.send(_pkt(sport))
        sim.run(until=1e-3)
        # Nothing reached the dead NIC, so nothing was acknowledged:
        # the frames stay outstanding and the RTO keeps offering them.
        assert channel.delivered == 0
        assert channel.acks_sent == 0
        assert channel.inflight == 5
        assert channel.retransmissions > 0
        # Every transmission is counted where it died.
        assert net.dropped_to_failed == 5 + channel.retransmissions

    def test_crashed_chain_position_stops_acking(self):
        sim = Simulator()
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1,
                         deliver=EgressRecorder(sim), costs=COSTS,
                         n_threads=2, reliable_links=True)
        chain.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        sim.run(until=0.005)
        hop = chain._channels[(0, 1)]
        assert hop.retransmissions == 0
        chain.fail_position(1)
        delivered = hop.delivered
        sim.run(until=0.006)
        assert hop.delivered == delivered
        assert hop.inflight > 0
        assert hop.retransmissions > 0


class TestReSteerReset:
    def test_recovery_drops_frames_queued_for_the_corpse(self):
        """The replacement starts a fresh epoch: nothing sent to the
        corpse is replayed to it."""
        sim = Simulator()
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1,
                         deliver=EgressRecorder(sim), costs=COSTS,
                         n_threads=2, reliable_links=True)
        chain.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        sim.schedule_callback(0.005, lambda: chain.fail_position(1))
        seen, before = [], []

        def at_re_steer(position, old_name, new_name):
            hop = chain._channels[(0, 1)]
            seen.append((position, hop.inflight, hop.epoch))

        def recover():
            hop = chain._channels[(0, 1)]
            before.append((hop.inflight, hop.epoch))
            chain.route_observers.append(at_re_steer)
            yield from recover_positions(chain, [1])

        sim.schedule_callback(0.006, lambda: sim.process(recover()))
        sim.run(until=0.012)
        [(queued, epoch)] = before
        assert queued > 0   # frames the corpse never acknowledged
        assert seen == [(1, 0, epoch + 1)]
