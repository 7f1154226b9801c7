"""Chaos subsystem tests: plans, the monkey, the auditor, short soaks."""

import pytest

from repro.chaos import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantAuditor,
    ShadowOracle,
    SoakConfig,
    chaos_scenario,
    run_soak,
)
from repro.chaos import run_schedule as run_scenario_schedule
from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)


def run_schedule(**params):
    return run_scenario_schedule(chaos_scenario(**params))


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
        plan = (FaultPlan().crash(1, at_s=2e-3)
                .impair_control(at_s=1e-3, drop_rate=0.5, duration_s=1e-3)
                .crash_during_recovery(2, "fetching"))
        assert len(plan.faults) == 3
        lines = plan.describe()
        assert any("crash p1" in line for line in lines)
        assert any("impair" in line for line in lines)
        assert any("fetching" in line for line in lines)

    def test_scripted_crashes_fire_at_time(self):
        sim = Simulator()
        chain = build_chain(sim)
        plan = FaultPlan().crash(1, at_s=2e-3).crash(2, at_s=2e-3)
        injector = FaultInjector(chain, None, plan)
        injector.start()
        sim.run(until=5e-3)
        assert chain.server_at(1).failed
        assert chain.server_at(2).failed
        assert [when for when, _ in injector.injected] == [2e-3, 2e-3]

    def test_scripted_impairment_applies_and_expires(self):
        sim = Simulator()
        chain = build_chain(sim)
        plan = FaultPlan().impair_control(at_s=1e-3, drop_rate=1.0,
                                          duration_s=2e-3)
        FaultInjector(chain, None, plan).start()
        sim.run(until=2e-3)
        assert chain.net._impairment is not None
        assert chain.net._impairment.active(sim.now)
        sim.run(until=4e-3)
        assert not chain.net._impairment.active(sim.now)


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
        a = run_schedule(seed=42, chain_length=3, f=1, max_faults=2,
                         duration_s=40e-3)
        b = run_schedule(seed=42, chain_length=3, f=1, max_faults=2,
                         duration_s=40e-3)
        assert a.faults == b.faults
        assert a.released == b.released
        assert a.failures_detected == b.failures_detected

    def test_different_seeds_differ(self):
        a = run_schedule(seed=1, chain_length=4, f=1, max_faults=3,
                         duration_s=40e-3)
        b = run_schedule(seed=2, chain_length=4, f=1, max_faults=3,
                         duration_s=40e-3)
        assert a.faults != b.faults

    def test_monkey_respects_f_bound(self):
        """With the safety gate on, no schedule ever degrades the chain:
        every injected crash stays within every group's f budget."""
        for seed in range(5):
            result = run_schedule(seed=seed, chain_length=3, f=1,
                                  max_faults=4, duration_s=50e-3)
            assert not result.degraded
            assert result.violations == []

    def test_short_soak_zero_violations(self):
        config = SoakConfig(seed=7, schedules=6, faults_per_schedule=2,
                            chain_lengths=(2, 3), f_values=(1, 2),
                            duration_s=30e-3)
        result = run_soak(config)
        assert len(result.schedules) == 6
        assert result.ok, result.summary()
        assert result.faults_injected > 0
        assert "0 invariant violations" in result.summary()
