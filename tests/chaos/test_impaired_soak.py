"""Data-plane adversity soak + determinism regression (PROTOCOL.md §8).

The acceptance contract for the reliability layer: at the headline
impairment point (drop=0.05, dup=0.02, reorder=0.02, corrupt=0.01,
f=1) a soak schedule must finish with zero invariant violations, zero
egress loss, per-flow-ordered exactly-once egress, and no spurious
failover -- and the whole run must be a pure function of its seed.
"""

import pytest

from repro.chaos import (
    FaultPlan,
    FaultSpec,
    IMPAIRED_DELIVERY,
    SoakConfig,
    impaired_scenario,
    run_schedule,
    run_soak,
)

RATES = dict(drop_rate=0.05, dup_rate=0.02, reorder_rate=0.02,
             corrupt_rate=0.01)


def run_impaired_schedule(**params):
    return run_schedule(impaired_scenario(**params))


class TestFaultSpecValidation:
    def test_impair_data_kind_accepted(self):
        spec = FaultSpec(kind=IMPAIRED_DELIVERY, at_s=1e-3, **RATES)
        assert "impair data" in spec.describe()
        assert "reorder=0.02" in spec.describe()

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="reorder_rate"):
            FaultSpec(kind=IMPAIRED_DELIVERY, reorder_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_rate"):
            FaultSpec(kind=IMPAIRED_DELIVERY, corrupt_rate=-0.1)

    def test_plan_builder(self):
        plan = FaultPlan().impair_data(at_s=2e-3, duration_s=5e-3, **RATES)
        assert plan.faults[0].kind == IMPAIRED_DELIVERY
        assert plan.faults[0].duration_s == 5e-3


@pytest.mark.soak_impaired
class TestImpairedSoak:
    def test_acceptance_rates_zero_violations(self):
        """Headline point: lossy links, exactly-once egress, no failover."""
        result = run_impaired_schedule(seed=3, chain_length=2, f=1,
                                       duration_s=30e-3, **RATES)
        assert result.violations == []
        assert result.sent > 0
        assert result.released == result.sent  # zero egress loss
        assert result.retransmissions > 0  # the layer actually worked
        assert result.failures_detected == 0  # no spurious failover
        assert not result.degraded

    def test_longer_chain_higher_f(self):
        result = run_impaired_schedule(seed=11, chain_length=3, f=2,
                                       duration_s=30e-3, **RATES)
        assert result.violations == []
        assert result.released == result.sent

    def test_determinism_same_seed_same_run(self):
        """Same seed + spec => bit-identical egress order and counters.

        Packet ids come from a process-global counter, so the two runs'
        pids differ by a constant offset; the *relative* sequence must
        match exactly.
        """
        first = run_impaired_schedule(seed=5, chain_length=2, f=1,
                                      duration_s=20e-3, **RATES)
        second = run_impaired_schedule(seed=5, chain_length=2, f=1,
                                       duration_s=20e-3, **RATES)
        assert first.egress_pids and second.egress_pids
        base_a, base_b = first.egress_pids[0], second.egress_pids[0]
        assert ([p - base_a for p in first.egress_pids] ==
                [p - base_b for p in second.egress_pids])
        assert first.retransmissions == second.retransmissions
        assert first.sent == second.sent
        assert first.faults == second.faults

    def test_soak_config_routes_to_impaired_schedules(self):
        config = SoakConfig(seed=1, schedules=2, chain_lengths=(2,),
                            f_values=(1,), duration_s=15e-3,
                            impair_data=(0.05, 0.02, 0.02, 0.01))
        result = run_soak(config)
        assert result.ok, result.summary()
        assert all(s.retransmissions > 0 for s in result.schedules)
        assert all(s.released == s.sent for s in result.schedules)
