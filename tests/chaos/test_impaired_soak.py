"""Data-plane adversity soak + determinism regression (PROTOCOL.md §8).

The acceptance contract for the reliability layer: at the headline
impairment point (drop=0.05, dup=0.02, reorder=0.02, corrupt=0.01,
f=1) a soak schedule must finish with zero invariant violations, zero
egress loss, per-flow-ordered exactly-once egress, and no spurious
failover -- and the whole run must be a pure function of its seed.
"""

import pytest

from repro.chaos import (
    FaultSpec,
    IMPAIRED_DELIVERY,
    impaired_scenario,
    run,
    run_soak,
)

RATES = dict(drop_rate=0.05, dup_rate=0.02, reorder_rate=0.02,
             corrupt_rate=0.01)


def run_impaired_schedule(**params):
    return run(impaired_scenario(**params))


def retransmissions(out):
    return out.chain.channel_stats().get("retransmissions", 0)


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
        specs = (FaultSpec(kind=IMPAIRED_DELIVERY, at_s=2e-3,
                           duration_s=5e-3, **RATES),)
        assert specs[0].kind == IMPAIRED_DELIVERY
        assert specs[0].duration_s == 5e-3


@pytest.mark.soak_impaired
class TestImpairedSoak:
    def test_acceptance_rates_zero_violations(self):
        """Headline point: lossy links, exactly-once egress, no failover."""
        result = run_impaired_schedule(seed=3, chain_length=2, f=1,
                                       duration_s=30e-3, **RATES)
        sent = result.generator.sent
        assert result.violations == []
        assert sent > 0
        assert result.oracle.released == sent  # zero egress loss
        assert retransmissions(result) > 0  # the layer actually worked
        assert result.failures == []  # no spurious failover
        assert not result.chain.degraded

    def test_longer_chain_higher_f(self):
        result = run_impaired_schedule(seed=11, chain_length=3, f=2,
                                       duration_s=30e-3, **RATES)
        assert result.violations == []
        assert result.oracle.released == result.generator.sent

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
        order_a, order_b = first.oracle.order, second.oracle.order
        assert order_a and order_b
        assert ([p - order_a[0] for p in order_a] ==
                [p - order_b[0] for p in order_b])
        assert retransmissions(first) == retransmissions(second)
        assert first.generator.sent == second.generator.sent
        assert first.faults == second.faults

    def test_soak_config_routes_to_impaired_schedules(self):
        result = run_soak([
            impaired_scenario(seed=10_000 + i, chain_length=2, f=1,
                              duration_s=15e-3, index=i, **RATES)
            for i in range(2)])
        assert result.ok, result.summary()
        assert all(retransmissions(out) > 0 for out in result.runs)
        assert all(out.oracle.released == out.generator.sent
                   for out in result.runs)
