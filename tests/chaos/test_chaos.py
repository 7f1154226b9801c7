"""Chaos subsystem tests: plans, the monkey, the auditor, short soaks."""

import re

import pytest

from repro.chaos import (
    ChaosMonkey,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantAuditor,
    Scenario,
    ShadowOracle,
    chaos_scenario,
    run,
    run_soak,
)
from repro.chaos.scenario import monitors
from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import Orchestrator
from repro.sim import Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)


def run_chaos(**params):
    return run(chaos_scenario(**params))


def build_chain(sim, n=3, f=1, seed=0, oracle=None):
    deliver = oracle if oracle is not None else (lambda p: None)
    chain = FTCChain(sim, ch_n(n, n_threads=2), f=f, deliver=deliver,
                     costs=COSTS, n_threads=2, seed=seed)
    chain.start()
    return chain


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor-strike")
        with pytest.raises(ValueError):
            FaultSpec(kind="crash")  # needs a position
        with pytest.raises(ValueError):
            FaultSpec(kind="crash-during-recovery", position=1)  # needs phase

    def test_builder_and_describe(self):
        plan = FaultPlan([
            FaultSpec(kind="crash", at_s=2e-3, position=1),
            FaultSpec(kind="impair-control", at_s=1e-3, drop_rate=0.5,
                      duration_s=1e-3),
            FaultSpec(kind="crash-during-recovery", position=2,
                      phase="fetching")])
        assert len(plan.faults) == 3
        lines = plan.describe()
        assert any("crash p1" in line for line in lines)
        assert any("impair" in line for line in lines)
        assert any("fetching" in line for line in lines)

    def test_scripted_crashes_fire_at_time(self):
        sim = Simulator()
        chain = build_chain(sim)
        plan = FaultPlan([FaultSpec(kind="crash", at_s=2e-3, position=1),
                          FaultSpec(kind="crash", at_s=2e-3, position=2)])
        injector = FaultInjector(chain, None, plan)
        injector.start()
        sim.run(until=5e-3)
        assert chain.server_at(1).failed
        assert chain.server_at(2).failed
        assert [when for when, _ in injector.injected] == [2e-3, 2e-3]

    def test_scripted_impairment_applies_and_expires(self):
        sim = Simulator()
        chain = build_chain(sim)
        plan = FaultPlan([FaultSpec(kind="impair-control", at_s=1e-3,
                                    drop_rate=1.0, duration_s=2e-3)])
        FaultInjector(chain, None, plan).start()
        sim.run(until=2e-3)
        assert chain.net._impairment is not None
        assert chain.net._impairment.active(sim.now)
        sim.run(until=4e-3)
        assert not chain.net._impairment.active(sim.now)


class TestInjectorTargets:
    """start() checks every spec's target before the run, not mid-run."""

    def test_out_of_range_crash_position_rejected_at_start(self):
        sim = Simulator()
        chain = build_chain(sim)
        plan = FaultPlan([FaultSpec(kind="crash", at_s=1e-3, position=7)])
        with pytest.raises(ValueError, match="out of range"):
            FaultInjector(chain, None, plan).start()

    def test_out_of_range_slow_middlebox_rejected_at_start(self):
        sim = Simulator()
        chain = build_chain(sim)
        plan = FaultPlan([FaultSpec(kind="slow-middlebox", at_s=1e-3,
                                    position=chain.n_mboxes,
                                    duration_s=1e-3)])
        with pytest.raises(ValueError, match="out of range"):
            FaultInjector(chain, None, plan).start()

    def test_crash_during_recovery_without_position_draws_a_safe_victim(self):
        out = run(Scenario(
            chain=monitors(4), f=2, seed=1, costs=COSTS, duration_s=30e-3,
            drain_s=30e-3, rate_pps=2e4, orchestrators=1,
            heartbeat_interval_s=1e-3, quiescent=False,
            faults=(FaultSpec(kind="crash", at_s=5e-3, position=0),
                    FaultSpec(kind="crash-during-recovery",
                              phase="fetching"))))
        first, second = [what for _, what in out.faults]
        assert first == "crash p0"
        assert re.fullmatch(
            r"crash p[123] during recovery phase 'fetching' of \[0\]", second)
        assert not out.chain.degraded


class TestMonkeyTargets:
    """A weighted kind the monkey cannot target fails at construction."""

    def _chain_and_orchestrator(self):
        sim = Simulator()
        chain = build_chain(sim)
        return chain, Orchestrator(sim, chain)

    def test_flash_crowd_without_workload_rejected(self):
        chain, orch = self._chain_and_orchestrator()
        with pytest.raises(ValueError, match="workload"):
            ChaosMonkey(chain, orch, kind_weights={"crash": 1.0,
                                                   "flash-crowd": 1.0})

    def test_orch_kind_without_ensemble_rejected(self):
        chain, orch = self._chain_and_orchestrator()
        with pytest.raises(ValueError, match="ensemble"):
            ChaosMonkey(chain, orch, kind_weights={"orch-partition": 1.0})

    def test_kind_the_monkey_cannot_sample_rejected(self):
        chain, orch = self._chain_and_orchestrator()
        with pytest.raises(ValueError, match="cannot sample"):
            ChaosMonkey(chain, orch,
                        kind_weights={"crash-during-reconfig": 1.0})


class TestAuditor:
    def _run_clean(self, sim, chain, oracle, until=0.02):
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=2e5,
                               flows=balanced_flows(8, 2))
        sim.run(until=until)
        gen.stop()
        sim.run(until=until + 5e-3)
        return InvariantAuditor(chain, oracle=oracle)

    def test_clean_chain_zero_violations(self):
        sim = Simulator()
        oracle = ShadowOracle()
        chain = build_chain(sim, oracle=oracle)
        auditor = self._run_clean(sim, chain, oracle)
        assert oracle.released > 0
        assert auditor.audit(quiescent=True) == []
        assert auditor.violations == []

    def test_detects_log_propagation_violation(self):
        sim = Simulator()
        oracle = ShadowOracle()
        chain = build_chain(sim, oracle=oracle)
        auditor = self._run_clean(sim, chain, oracle)
        # Corrupt a successor's MAX vector past its predecessor's.
        index = chain.mbox_index("monitor1")
        tail = chain.group_positions(index)[-1]
        state = chain.replicas[tail].states["monitor1"]
        partition = next(iter(state.max), 0)
        state.max[partition] = state.max.get(partition, 0) + 5
        found = auditor.audit()
        assert any(v.invariant == "log-propagation" for v in found)

    def test_detects_release_safety_violation(self):
        sim = Simulator()
        oracle = ShadowOracle()
        chain = build_chain(sim, oracle=oracle)
        auditor = self._run_clean(sim, chain, oracle)
        # Claim more releases than any store accounts for.
        oracle.released += 10_000
        found = auditor.audit()
        assert any(v.invariant == "release-safety" for v in found)

    def test_detects_pruning_violation(self):
        sim = Simulator()
        oracle = ShadowOracle()
        chain = build_chain(sim, oracle=oracle)
        auditor = self._run_clean(sim, chain, oracle)
        state = chain.replicas[0].states["monitor1"]
        state.commit_floor[0] = state.max.get(0, 0) + 100
        found = auditor.audit()
        assert any(v.invariant == "pruning-bound" for v in found)

    def test_detects_divergent_stores_at_quiescence(self):
        sim = Simulator()
        oracle = ShadowOracle()
        chain = build_chain(sim, oracle=oracle)
        auditor = self._run_clean(sim, chain, oracle)
        index = chain.mbox_index("monitor2")
        tail = chain.group_positions(index)[-1]
        chain.store_of("monitor2", tail).apply(("count", 0), 999_999)
        found = auditor.audit(quiescent=True)
        assert any(v.invariant == "recovery-consistency" for v in found)

    def test_degraded_chain_is_not_audited(self):
        sim = Simulator()
        oracle = ShadowOracle()
        chain = build_chain(sim, oracle=oracle)
        auditor = self._run_clean(sim, chain, oracle)
        chain.degraded = True
        oracle.released += 10_000  # would violate, but loss is declared
        assert auditor.audit() == []


class TestMonkeyAndSoak:
    def test_schedule_is_seed_deterministic(self):
        a = run_chaos(seed=42, chain_length=3, f=1, max_faults=2,
                         duration_s=40e-3)
        b = run_chaos(seed=42, chain_length=3, f=1, max_faults=2,
                         duration_s=40e-3)
        assert a.faults == b.faults
        assert a.oracle.released == b.oracle.released
        assert len(a.failures) == len(b.failures)

    def test_different_seeds_differ(self):
        a = run_chaos(seed=1, chain_length=4, f=1, max_faults=3,
                         duration_s=40e-3)
        b = run_chaos(seed=2, chain_length=4, f=1, max_faults=3,
                         duration_s=40e-3)
        assert a.faults != b.faults

    def test_monkey_respects_f_bound(self):
        """With the safety gate on, no schedule ever degrades the chain:
        every injected crash stays within every group's f budget."""
        for seed in range(5):
            result = run_chaos(seed=seed, chain_length=3, f=1,
                                  max_faults=4, duration_s=50e-3)
            assert not result.chain.degraded
            assert result.violations == []

    def test_short_soak_zero_violations(self):
        grid = [(2, 1), (2, 2), (3, 1), (3, 2)]
        result = run_soak([
            chaos_scenario(seed=70_000 + i, chain_length=n, f=f,
                           max_faults=2, duration_s=30e-3, index=i)
            for i, (n, f) in enumerate(grid + grid[:2])])
        assert len(result.runs) == 6
        assert result.ok, result.summary()
        assert result.faults_injected > 0
        assert "0 invariant violations" in result.summary()
