"""Tests for the NF and FTMB(+Snapshot) baselines."""

import pytest

from repro.baselines import FTMBChain, NFChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import Firewall, Monitor, ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)


def run_chain(cls, middleboxes, count=300, rate=1e6, run_for=0.05,
              n_threads=2, **kwargs):
    sim = Simulator()
    egress = EgressRecorder(sim, keep_packets=True)
    chain = cls(sim, middleboxes, deliver=egress, costs=COSTS,
                n_threads=n_threads, **kwargs)
    chain.start()
    TrafficGenerator(sim, chain.ingress, rate_pps=rate,
                     flows=balanced_flows(8, n_threads), count=count)
    sim.run(until=run_for)
    return sim, chain, egress


def saturate(cls, middleboxes, n_threads=8, rate=12e6, **kwargs):
    sim = Simulator()
    egress = EgressRecorder(sim)
    chain = cls(sim, middleboxes, deliver=egress, costs=COSTS,
                n_threads=n_threads, **kwargs)
    chain.start()
    TrafficGenerator(sim, chain.ingress, rate_pps=rate,
                     flows=balanced_flows(64, n_threads))
    sim.run(until=0.001)
    egress.throughput.start_window()
    sim.run(until=0.0025)
    return egress.throughput.rate_mpps()


class TestNFChain:
    def test_delivers_all_packets(self):
        _, chain, egress = run_chain(NFChain, ch_n(3, n_threads=2))
        assert chain.total_released() == 300
        assert egress.count == 300

    def test_state_updated_but_not_replicated(self):
        _, chain, _ = run_chain(NFChain, ch_n(2, n_threads=2))
        monitor = chain.middleboxes[0]
        assert monitor.total_count(chain.store_of(0)) == 300
        # No replication machinery at all.
        assert chain.runtimes[0].state.retained == []

    def test_latency_is_bare_traversal(self):
        _, chain, egress = run_chain(NFChain, ch_n(3, n_threads=2))
        # 2 inter-server hops at 6.5 us plus processing; no commit wait.
        assert egress.latency.mean_us() < 20

    def test_empty_chain_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            NFChain(sim, [])


class TestFTMBChain:
    def test_delivers_all_packets(self):
        _, chain, egress = run_chain(FTMBChain, ch_n(2, n_threads=2))
        assert chain.total_released() == 300

    def test_one_pal_per_stateful_packet(self):
        _, chain, _ = run_chain(FTMBChain, ch_n(2, n_threads=2))
        # Monitor touches state on every packet at both middleboxes.
        assert chain.pals_sent == 600

    def test_stateless_middlebox_no_pals(self):
        _, chain, _ = run_chain(FTMBChain, [Firewall(name="fw")])
        assert chain.pals_sent == 0
        assert chain.total_released() == 300

    def test_pal_ceiling_emerges_at_half_nic_rate(self):
        """§7.3: one PAL message per packet caps FTMB at ~NIC/2."""
        mpps = saturate(FTMBChain, [Monitor(name="m", sharing_level=1,
                                            n_threads=8)])
        assert mpps == pytest.approx(COSTS.nic_pps / 2 / 1e6, rel=0.03)

    def test_latency_above_nf(self):
        _, _, nf_egress = run_chain(NFChain, ch_n(2, n_threads=2))
        _, _, ftmb_egress = run_chain(FTMBChain, ch_n(2, n_threads=2))
        assert ftmb_egress.latency.mean_us() > nf_egress.latency.mean_us()

    def test_snapshots_stall_traffic(self):
        """§7.4: FTMB+Snapshot periodically pauses each master."""
        sim = Simulator()
        egress = EgressRecorder(sim)
        costs = COSTS.with_overrides(snapshot_period_s=5e-3,
                                     snapshot_stall_s=1e-3)
        chain = FTMBChain(sim, ch_n(2, n_threads=2), deliver=egress,
                          costs=costs, n_threads=2, snapshots=True)
        chain.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2))
        sim.run(until=0.05)
        # Latency spikes: max latency >= the stall length.
        assert egress.latency.percentile_us(99.9) >= 500
        # Without snapshots, no such spikes.
        sim2 = Simulator()
        egress2 = EgressRecorder(sim2)
        chain2 = FTMBChain(sim2, ch_n(2, n_threads=2), deliver=egress2,
                           costs=costs, n_threads=2, snapshots=False)
        chain2.start()
        TrafficGenerator(sim2, chain2.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2))
        sim2.run(until=0.05)
        assert egress2.latency.percentile_us(99.9) < 500

    def test_snapshot_throughput_drop_grows_with_chain_length(self):
        """§7.4's headline: ~40% drop from 1 to 5 middleboxes."""
        costs = COSTS.with_overrides(snapshot_period_s=2e-3,
                                     snapshot_stall_s=0.3e-3,
                                     nic_queue_depth=256)

        def tput(n):
            sim = Simulator()
            egress = EgressRecorder(sim)
            chain = FTMBChain(sim, ch_n(n, n_threads=2), deliver=egress,
                              costs=costs, n_threads=2, snapshots=True,
                              seed=3)
            chain.start()
            # Saturating load: stalls subtract service time directly.
            TrafficGenerator(sim, chain.ingress, rate_pps=8e6,
                             flows=balanced_flows(16, 2))
            sim.run(until=0.004)
            egress.throughput.start_window()
            sim.run(until=0.014)
            return egress.throughput.rate_mpps()

        assert tput(4) < 0.9 * tput(1)

