"""Tests for vertical scaling (§1's depvec-enabled feature)."""

import pytest

from repro.core import FTCChain, ReconfigOp, apply_reconfig
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import Monitor
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


def _chain(sim, n_threads=2):
    egress = EgressRecorder(sim)
    middleboxes = [Monitor(name=f"m{i}", sharing_level=1, n_threads=8)
                   for i in range(3)]
    chain = FTCChain(sim, middleboxes, f=1, deliver=egress,
                     costs=FAST_COSTS, n_threads=n_threads)
    chain.start()
    return chain, egress


def rescale(chain, position, n_threads):
    return apply_reconfig(chain, ReconfigOp(
        kind="rescale", position=position, n_threads=n_threads))


class TestVerticalScaling:
    def test_scale_up_preserves_state_and_traffic(self):
        sim = Simulator()
        chain, egress = _chain(sim, n_threads=2)
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                               flows=balanced_flows(8, 2))
        reports = []

        def scale(sim):
            yield sim.timeout(0.003)
            old_threads = len(chain.server_at(1).nic.queues)
            report = yield sim.process(rescale(chain, 1, 4))
            reports.append((old_threads, report))

        sim.process(scale(sim))
        sim.run(until=0.008)
        gen.stop()
        sim.run(until=0.018)

        old_threads, report = reports[0]
        assert old_threads == 2 and report.op.n_threads == 4
        assert len(chain.server_at(1).nic.queues) == 4
        released = chain.total_released()
        assert released > 0
        # Consistency across all groups after the rescale.
        for index, mbox in enumerate(chain.middleboxes):
            stores = [chain.store_of(mbox.name, pos)
                      for pos in chain.group_positions(index)]
            assert all(s == stores[0] for s in stores)
            assert mbox.total_count(stores[0]) >= released

    def test_scale_down_works(self):
        """Failing over to fewer cores (§4.3's scarce-resource case)."""
        sim = Simulator()
        chain, _ = _chain(sim, n_threads=4)
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                               flows=balanced_flows(8, 4))

        def scale(sim):
            yield sim.timeout(0.003)
            yield sim.process(rescale(chain, 0, 1))

        sim.process(scale(sim))
        sim.run(until=0.008)
        gen.stop()
        sim.run(until=0.018)
        assert len(chain.server_at(0).nic.queues) == 1
        assert chain.total_released() > 0
        stores = [chain.store_of("m0", pos)
                  for pos in chain.group_positions(0)]
        assert all(s == stores[0] for s in stores)

    def test_rescale_is_fast_compared_to_recovery(self):
        """The source is alive and local: no WAN, no detection."""
        sim = Simulator()
        chain, _ = _chain(sim)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2), count=2000)
        reports = []

        def scale(sim):
            yield sim.timeout(0.003)
            report = yield sim.process(rescale(chain, 1, 4))
            reports.append(report)

        sim.process(scale(sim))
        sim.run(until=0.02)
        assert reports[0].total_s < 2e-3

    def test_scale_up_raises_throughput(self):
        """More cores at the bottleneck -> more sustained throughput."""
        def run(rescale_to):
            sim = Simulator()
            egress = EgressRecorder(sim)
            chain = FTCChain(
                sim, [Monitor(name="m", sharing_level=1, n_threads=8)],
                f=1, deliver=egress, costs=FAST_COSTS, n_threads=1)
            chain.start()
            TrafficGenerator(sim, chain.ingress, rate_pps=12e6,
                             flows=balanced_flows(32, 1))
            if rescale_to:
                def scale(sim):
                    yield sim.timeout(0.5e-3)
                    yield sim.process(rescale(chain, 0, rescale_to))
                sim.process(scale(sim))
            sim.run(until=2e-3)
            egress.throughput.start_window()
            sim.run(until=4e-3)
            return egress.throughput.rate_mpps()

        assert run(rescale_to=4) > 1.5 * run(rescale_to=None)

    def test_invalid_thread_count_rejected(self):
        sim = Simulator()
        chain, _ = _chain(sim)
        with pytest.raises(ValueError):
            rescale(chain, 0, 0)
