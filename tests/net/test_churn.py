"""Tests for the flow-churn traffic generator."""

import pytest

from repro.net import FlowChurnGenerator
from repro.sim import RandomStreams, Simulator


class TestFlowChurn:
    def _run(self, seed=0, until=0.05, **kwargs):
        sim = Simulator()
        packets = []
        gen = FlowChurnGenerator(sim, packets.append,
                                 flow_arrival_rate=2000,
                                 flow_lifetime_s=5e-3,
                                 per_flow_pps=20_000,
                                 streams=RandomStreams(seed), **kwargs)
        sim.run(until=until)
        gen.stop()
        return gen, packets

    def test_flows_arrive_and_depart(self):
        gen, packets = self._run()
        assert gen.flows_started > 50
        assert gen.flows_finished > 0
        assert len(packets) == gen.packets_sent > 0

    def test_many_distinct_flows(self):
        _, packets = self._run()
        flows = {p.flow for p in packets}
        assert len(flows) > 50

    def test_flow_packets_contiguous_in_time(self):
        """Each flow's packets span roughly its lifetime, not the run."""
        gen, packets = self._run()
        by_flow = {}
        for p in packets:
            by_flow.setdefault(p.flow, []).append(p.created_at)
        spans = [max(ts) - min(ts) for ts in by_flow.values() if len(ts) > 1]
        assert spans
        # Mean span near the mean lifetime, far below the 50 ms run.
        assert sum(spans) / len(spans) < 0.02

    def test_offered_load_estimate(self):
        gen, packets = self._run(until=0.1)
        measured = len(packets) / 0.1
        # Long-run offered load: arrivals x lifetime x per-flow rate.
        offered = gen.flow_arrival_rate * gen.flow_lifetime_s * gen.per_flow_pps
        assert measured == pytest.approx(offered, rel=0.35)

    def test_reproducible_by_seed(self):
        _, first = self._run(seed=3)
        _, second = self._run(seed=3)
        assert [p.flow for p in first] == [p.flow for p in second]
        _, third = self._run(seed=4)
        assert [p.flow for p in first] != [p.flow for p in third]

    def test_stop_halts_everything(self):
        sim = Simulator()
        packets = []
        gen = FlowChurnGenerator(sim, packets.append)
        sim.run(until=0.01)
        gen.stop()
        count = len(packets)
        sim.run(until=0.05)
        assert len(packets) <= count + gen.active_flows + 1

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlowChurnGenerator(sim, lambda p: None, flow_arrival_rate=0)
