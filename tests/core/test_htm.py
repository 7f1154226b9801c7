"""Tests for the hybrid-HTM fast path (§3.2)."""

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import Monitor
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator
from repro.stm import PartitionSpace, StateStore, TransactionManager

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


class TestHTMManager:
    def _manager(self, sim, htm=True):
        return TransactionManager(sim, StateStore(), PartitionSpace(8),
                                  htm=htm)

    def test_uncontended_commits_via_htm(self):
        sim = Simulator()
        manager = self._manager(sim)

        def body(ctx):
            ctx.write("k", 1)

        result = sim.run(until=sim.process(manager.run(body)))
        assert result.used_htm
        assert manager.htm_commits == 1
        assert manager.htm_fallbacks == 0
        assert manager.store.get("k") == 1

    def test_contended_falls_back_to_locks(self):
        sim = Simulator()
        manager = self._manager(sim)
        paths = []

        def body(ctx):
            ctx.write("shared", ctx.read("shared", 0) + 1)

        def worker(sim):
            result = yield from manager.run(body, hold_time=1e-6)
            paths.append(result.used_htm)

        for _ in range(4):
            sim.process(worker(sim))
        sim.run()
        assert manager.store.get("shared") == 4
        assert paths[0] is True       # first one found everything free
        assert False in paths         # the rest hit contention
        assert manager.htm_fallbacks >= 1

    def test_htm_disabled_never_uses_fast_path(self):
        sim = Simulator()
        manager = self._manager(sim, htm=False)
        result = sim.run(until=sim.process(
            manager.run(lambda ctx: ctx.write("k", 1))))
        assert not result.used_htm
        assert manager.htm_commits == 0

    def test_htm_overhead_cheaper_than_locks(self):
        def elapsed(htm):
            sim = Simulator()
            manager = self._manager(sim, htm=htm)
            sim.run(until=sim.process(manager.run(
                lambda ctx: ctx.write("k", 1),
                hold_time=1e-6, lock_overhead_s=1e-7, htm_overhead_s=2e-8)))
            return sim.now

        assert elapsed(htm=True) < elapsed(htm=False)

    def test_serializability_preserved_with_htm(self):
        sim = Simulator()
        manager = self._manager(sim)

        def body(ctx):
            ctx.write("count", ctx.read("count", 0) + 1)

        def worker(sim):
            yield from manager.run(body, hold_time=5e-7)

        for _ in range(20):
            sim.process(worker(sim))
        sim.run()
        assert manager.store.get("count") == 20


class TestHTMChain:
    def test_htm_chain_end_to_end(self):
        sim = Simulator()
        egress = EgressRecorder(sim)
        chain = FTCChain(sim, [Monitor(name="m", sharing_level=1,
                                       n_threads=2)],
                         f=1, deliver=egress, costs=FAST_COSTS,
                         n_threads=2, use_htm=True)
        chain.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(8, 2), count=200)
        sim.run(until=0.01)
        assert chain.total_released() == 200
        manager = chain.replica_at(0).runtime.manager
        assert manager.htm_commits > 0
        stores = [chain.store_of("m", pos)
                  for pos in chain.group_positions(0)]
        assert stores[0] == stores[1]

    def test_htm_improves_serialized_throughput_economics(self):
        """With sharing level 1 (no conflicts), HTM cuts per-packet
        cycles: a single thread gets faster."""
        def tput(use_htm):
            sim = Simulator()
            egress = EgressRecorder(sim)
            chain = FTCChain(sim, [Monitor(name="m", sharing_level=1,
                                           n_threads=8)],
                             f=1, deliver=egress, costs=FAST_COSTS,
                             n_threads=1, use_htm=use_htm)
            chain.start()
            TrafficGenerator(sim, chain.ingress, rate_pps=12e6,
                             flows=balanced_flows(16, 1))
            sim.run(until=0.5e-3)
            egress.throughput.start_window()
            sim.run(until=1.5e-3)
            return egress.throughput.rate_mpps()

        assert tput(True) > tput(False) * 1.02
