"""Integration tests: the FTC chain protocol end to end.

These exercise the correctness invariants of DESIGN.md §5: release
safety, log propagation, store convergence, wrap-around replication,
propagating packets, and piggyback pruning.
"""

import pytest

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import (
    Firewall,
    MazuNAT,
    Monitor,
    Rule,
    ch_n,
    ch_rec,
)
from repro.net import FlowKey, Packet, TrafficGenerator, balanced_flows, ip
from repro.sim import Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


def build(sim, middleboxes, f=1, n_threads=2, **kwargs):
    egress = EgressRecorder(sim, keep_packets=True)
    chain = FTCChain(sim, middleboxes, f=f, deliver=egress,
                     costs=FAST_COSTS, n_threads=n_threads, **kwargs)
    chain.start()
    return chain, egress


def drive(sim, chain, count=500, rate=1e6, n_flows=8, run_for=0.02):
    gen = TrafficGenerator(sim, chain.ingress, rate_pps=rate,
                           flows=balanced_flows(n_flows, chain.n_threads),
                           count=count)
    sim.run(until=run_for)
    return gen


def group_stores(chain, mbox_name):
    index = chain.mbox_index(mbox_name)
    return [chain.store_of(mbox_name, pos)
            for pos in chain.group_positions(index)]


class TestBasicOperation:
    def test_all_packets_released(self):
        sim = Simulator()
        chain, egress = build(sim, ch_n(3, n_threads=2))
        drive(sim, chain, count=400)
        assert chain.total_released() == 400
        assert egress.count == 400

    def test_replication_factor_f_plus_1(self):
        """Every middlebox's state exists identically at f+1 replicas."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(4, n_threads=2), f=2)
        drive(sim, chain, count=300)
        for mbox in chain.middleboxes:
            stores = group_stores(chain, mbox.name)
            assert len(stores) == 3
            assert all(s == stores[0] for s in stores)
            assert len(stores[0]) > 0

    def test_monitor_counts_match_traffic(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(2, n_threads=2))
        drive(sim, chain, count=250)
        for mbox in chain.middleboxes:
            for store in group_stores(chain, mbox.name):
                assert mbox.total_count(store) == 250

    def test_wrap_around_group_replicates_at_chain_start(self):
        """The last middlebox's state must reach the first server (§5)."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2), f=1)
        drive(sim, chain, count=200)
        last = chain.middleboxes[-1]
        assert chain.tail_position(2) == 0
        store_at_first = chain.store_of(last.name, 0)
        assert last.total_count(store_at_first) == 200

    def test_release_only_after_replication(self):
        """Sample released packets: their updates must already be at
        every replica of every wrap-group middlebox (release safety)."""
        sim = Simulator()
        chain, egress = build(sim, ch_n(3, n_threads=2))
        released_checks = []
        last = chain.middleboxes[-1]

        def checking_deliver(packet):
            egress(packet)
            counts = [last.total_count(store)
                      for store in group_stores(chain, last.name)]
            released_checks.append((egress.count, min(counts)))

        chain.deliver = checking_deliver
        drive(sim, chain, count=200)
        # When the k-th packet is released, at least k updates of the
        # last middlebox are present at EVERY group replica.
        for released, min_count in released_checks:
            assert min_count >= released

    def test_log_propagation_invariant(self):
        """§4.1: each replica's successor has the same or prior state.

        Sampled during live operation for a mid-chain middlebox.
        """
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2), f=2)
        samples = []

        def sampler(sim):
            mbox = chain.middleboxes[0]
            group = chain.group_positions(0)
            while True:
                yield sim.timeout(37e-6)
                counts = [mbox.total_count(chain.store_of(mbox.name, pos))
                          for pos in group]
                samples.append(counts)

        sim.process(sampler(sim))
        drive(sim, chain, count=400)
        assert len(samples) > 50
        for counts in samples:
            # Monotone non-increasing along the group: head >= ... >= tail.
            assert all(counts[i] >= counts[i + 1]
                       for i in range(len(counts) - 1))

    def test_pruning_bounds_retained_logs(self):
        """§3.2: replicated updates are pruned; memory stays bounded."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(2, n_threads=2))
        drive(sim, chain, count=2000, rate=2e6, run_for=0.05)
        for replica in chain.replicas:
            for state in replica.states.values():
                assert len(state.retained) < 200
                assert len(state.pending) == 0

    def test_latency_includes_commit_wait(self):
        """FTC latency > bare traversal: release waits for wrap commits."""
        sim = Simulator()
        chain, egress = build(sim, ch_n(2, n_threads=2))
        drive(sim, chain, count=300)
        traversal = 2 * FAST_COSTS.hop_delay_s * 1e6
        assert egress.latency.mean_us() > traversal


class TestChainVariants:
    def test_single_middlebox_extension_replicas(self):
        """§5.1: a 1-middlebox chain with f=2 gets two pure replicas."""
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m", n_threads=2)], f=2)
        assert chain.n_positions == 3
        assert chain.replicas[1].middlebox is None
        assert chain.replicas[2].middlebox is None
        drive(sim, chain, count=200)
        assert chain.total_released() == 200
        stores = group_stores(chain, "m")
        assert all(s == stores[0] for s in stores)

    def test_f_zero_no_replication(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(2, n_threads=2), f=0)
        drive(sim, chain, count=100)
        assert chain.total_released() == 100
        # Group of each middlebox is just its own head.
        assert chain.group_positions(0) == [0]

    def test_mazunat_rewrites_and_replicates(self):
        sim = Simulator()
        chain, egress = build(sim, [MazuNAT(name="nat"),
                                    Monitor(name="mon", n_threads=2)])
        drive(sim, chain, count=200)
        assert egress.count == 200
        # Released packets carry translated flows.
        assert all(p.flow.src_ip == ip("203.0.113.1") for p in egress.packets)
        stores = group_stores(chain, "nat")
        assert stores[0] == stores[1]
        assert len(stores[0]) > 0

    def test_firewall_filtering_state_still_replicates(self):
        """§5.1: a filtered packet's piggybacked state must propagate
        (via a propagating packet), not die with the packet."""
        sim = Simulator()
        mboxes = [Monitor(name="mon", n_threads=2),
                  Firewall(name="fw", default_action="deny")]
        chain, egress = build(sim, mboxes)
        drive(sim, chain, count=150)
        assert egress.count == 0  # everything filtered
        # Monitor's updates still replicated at both group members.
        stores = group_stores(chain, "mon")
        assert stores[0] == stores[1]
        assert mboxes[0].total_count(stores[0]) == 150
        assert chain.replicas[1].propagating_emitted > 0

    def test_ch_rec_composition_end_to_end(self):
        sim = Simulator()
        mboxes = ch_rec(n_threads=2)
        mboxes[0].rules.append(Rule(action="deny", dst_port=23))
        chain, egress = build(sim, mboxes)
        flows = balanced_flows(8, 2)
        blocked = FlowKey(ip("10.9.9.9"), ip("8.8.8.8"), 1234, 23)

        def mixed(sim):
            for i in range(120):
                yield sim.timeout(1e-6)
                flow = blocked if i % 3 == 0 else flows[i % len(flows)]
                chain.ingress(Packet(flow=flow, created_at=sim.now))

        sim.process(mixed(sim))
        sim.run(until=0.02)
        assert egress.count == 80
        assert mboxes[0].packets_dropped == 40
        for name in ("monitor", "simplenat"):
            stores = group_stores(chain, name)
            assert stores[0] == stores[1]

    def test_gen_chain_state_size(self):
        sim = Simulator()
        from repro.middlebox import ch_gen
        chain, egress = build(sim, ch_gen(state_size=64))
        drive(sim, chain, count=100)
        assert egress.count == 100
        stores = group_stores(chain, "gen1")
        assert stores[0] == stores[1]


class TestPropagatingTimer:
    def test_idle_chain_flushes_state_via_propagating_packets(self):
        """§5.1: with no incoming traffic, the forwarder timer keeps
        state flowing so the buffer eventually releases everything."""
        sim = Simulator()
        chain, egress = build(sim, ch_n(2, n_threads=2))
        # A short burst, then silence.
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=50)
        sim.run(until=0.05)
        assert chain.total_released() == 50
        assert len(chain.buffer.held) == 0
        assert chain.forwarder.propagating_sent > 0

    def test_propagating_packets_not_delivered(self):
        sim = Simulator()
        chain, egress = build(sim, ch_n(2, n_threads=2))
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=30)
        sim.run(until=0.05)
        assert egress.count == 30  # no propagating packet leaked out
        assert all(p.is_data for p in egress.packets)


class TestValidation:
    def test_empty_chain_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FTCChain(sim, [], f=1)

    def test_negative_f_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FTCChain(sim, ch_n(2), f=-1)

    def test_duplicate_names_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FTCChain(sim, [Monitor(name="x"), Monitor(name="x")])

    def test_group_geometry(self):
        sim = Simulator()
        chain = FTCChain(sim, ch_n(5, n_threads=2), f=2,
                         costs=FAST_COSTS, n_threads=2)
        assert chain.group_positions(4) == [4, 0, 1]
        assert chain.tail_position(4) == 1
        assert chain.predecessor_in_group(4, 0) == 4
        assert chain.successor_in_group(4, 4) == 0
        with pytest.raises(ValueError):
            chain.predecessor_in_group(4, 4)  # the head
        with pytest.raises(ValueError):
            chain.successor_in_group(4, 1)  # the tail
