"""Packet loss between replicas: retransmission closes log gaps (§4.1)."""

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.core.piggyback import PiggybackLog
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.net import LossyLink, TrafficGenerator, balanced_flows
from repro.sim import Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


def _make_lossy(chain, src_pos, dst_pos, drop_every):
    """Replace one inter-replica link with a lossy one."""
    net = chain.net
    src, dst = chain.route[src_pos], chain.route[dst_pos]
    old = net.link(src, dst)
    lossy = LossyLink(net.sim, old.sink, drop_every=drop_every,
                      delay_s=old.delay_s, bandwidth_bps=old.bandwidth_bps,
                      name=old.name)
    net._links[(src, dst)] = lossy
    return lossy


class TestRetransmission:
    def test_dropped_packets_leave_log_gaps_that_heal(self):
        sim = Simulator()
        egress = EgressRecorder(sim)
        chain = FTCChain(sim, ch_n(2, n_threads=2), f=1, deliver=egress,
                         costs=FAST_COSTS, n_threads=2)
        chain.start()
        lossy = _make_lossy(chain, 0, 1, drop_every=20)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2), count=400)
        sim.run(until=0.05)  # generous drain for watchdog rounds

        assert lossy.dropped > 0
        mon1 = chain.middleboxes[0]
        head_count = mon1.total_count(chain.store_of("monitor1", 0))
        tail_count = mon1.total_count(chain.store_of("monitor1", 1))
        # The head processed all 400; the tail missed the dropped
        # packets' logs on the wire but recovered them by asking the
        # head for its retained logs.
        assert head_count == 400
        assert tail_count == 400
        assert chain.replica_at(1).retransmit_requests > 0
        # Dropped data packets themselves are gone (clients' problem).
        assert egress.count == 400 - lossy.dropped

    def test_no_pending_logs_left_after_heal(self):
        sim = Simulator()
        egress = EgressRecorder(sim)
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=egress,
                         costs=FAST_COSTS, n_threads=2)
        chain.start()
        _make_lossy(chain, 1, 2, drop_every=15)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2), count=300)
        sim.run(until=0.06)
        for replica in chain.replicas:
            for state in replica.states.values():
                assert state.pending == []

    def test_each_replica_ages_a_shared_log_from_its_own_hold(self):
        """Both replicas of monitor1's group hold the *same* log object;
        the downstream hold, 150 us later, must not reset the upstream
        replica's clock (the watchdog ticks at 100, 200, 300 us)."""
        sim = Simulator()
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=2,
                         deliver=EgressRecorder(sim), costs=FAST_COSTS,
                         n_threads=2)
        chain.start()
        upstream, downstream = chain.replica_at(1), chain.replica_at(2)
        log = PiggybackLog("monitor1", {0: 5}, {"k": 1})   # ahead of MAX
        sim.schedule_callback(
            10e-6, lambda: upstream.states["monitor1"].offer(log, sim.now))
        sim.schedule_callback(
            160e-6, lambda: downstream.states["monitor1"].offer(log, sim.now))
        sim.run(until=350e-6)
        assert upstream.retransmit_requests == 1     # held 290 us at 300
        assert downstream.retransmit_requests == 0   # held 140 us at 300

    def test_lossless_run_never_retransmits(self):
        sim = Simulator()
        egress = EgressRecorder(sim)
        chain = FTCChain(sim, ch_n(2, n_threads=2), f=1, deliver=egress,
                         costs=FAST_COSTS, n_threads=2)
        chain.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2), count=300)
        sim.run(until=0.03)
        assert all(r.retransmit_requests == 0 for r in chain.replicas)
