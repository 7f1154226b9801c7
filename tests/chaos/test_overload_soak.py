"""Flash-crowd overload soak + determinism regression (PROTOCOL.md §12).

The acceptance contract for the overload layer: a seeded flash crowd
at ~4.8x sustainable capacity -- optionally with a concurrent
middlebox crash and a replicated control plane journaling brownout --
must finish with zero invariant violations: no in-chain drops, every
shed accounted at the ingress gate, queues within bounds, goodput at
or above the floor, brownout entered *and* exited as journaled.  And
the whole run must be a pure function of its seed.
"""

import pytest

from repro.chaos import (
    OVERLOAD_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    OverloadSpec,
    SoakConfig,
    overload_scenario,
    run_schedule,
    run_soak,
)


def run_overload_schedule(**params):
    return run_schedule(overload_scenario(**params))


class TestOverloadSpec:
    def test_defaults_exceed_four_x(self):
        spec = OverloadSpec()
        assert spec.peak_factor >= 4.0
        assert spec.budget_frac > 1.0   # flash genuinely overloads

    def test_parse_round_trip(self):
        spec = OverloadSpec.parse(
            "sustain=1e4, base=0.5, budget=1.5, over=10, start=0.2, "
            "dur=0.3, floor=0.3, p99=500, crash=1, orch=3")
        assert spec.sustainable_pps == 1e4
        assert spec.peak_factor == pytest.approx(5.0)
        assert spec.crash and spec.orchestrators == 3
        assert "peak=5x" in spec.describe()
        assert "crash=mid-flash" in spec.describe()

    @pytest.mark.parametrize("text,match", [
        ("base", "key=value"),
        ("warp=9", "unknown overload key"),
        ("over=loud", "bad value"),
        ("base=2.0", "base_frac"),
        ("start=0.9,dur=0.5", "flash window"),
    ])
    def test_parse_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            OverloadSpec.parse(text)

    def test_overload_fault_kinds_registered(self):
        assert {"flash-crowd", "slow-middlebox", "queue-pressure"} <= set(
            OVERLOAD_FAULT_KINDS)
        spec = FaultSpec(kind="flash-crowd", at_s=1e-3, duration_s=2e-3,
                         factor=6.0)
        assert "x6" in spec.describe()
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec(kind="slow-middlebox", at_s=1e-3)
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind="queue-pressure", at_s=1e-3, duration_s=2e-3,
                      factor=0.5)
        plan = FaultPlan().queue_pressure(at_s=1e-3, duration_s=2e-3)
        assert plan.faults[0].kind == "queue-pressure"


@pytest.mark.soak_overload
class TestOverloadSoak:
    def test_flash_crowd_zero_violations(self):
        """Headline point: 4.8x flash crowd, zero in-chain drops,
        brownout engages and exits, goodput above floor."""
        result = run_overload_schedule(seed=42)
        assert result.violations == []
        assert result.shed > 0                    # it genuinely overloaded
        assert result.brownout_transitions >= 2   # entered and exited
        assert result.offered == result.admitted + result.shed
        assert result.released == result.admitted
        assert result.goodput_pps > 0

    def test_flash_crowd_with_crash(self):
        """Overload + middlebox crash mid-flash: failover under
        pressure still loses nothing inside the chain."""
        spec = OverloadSpec(crash=True)
        result = run_overload_schedule(seed=7, spec=spec)
        assert result.violations == []
        assert result.failures_detected >= 1
        assert result.recoveries >= 1

    def test_replicated_control_plane_journals_brownout(self):
        spec = OverloadSpec(orchestrators=3)
        result = run_overload_schedule(seed=11, spec=spec)
        assert result.violations == []
        assert result.brownout_transitions >= 2

    def test_same_seed_bit_identical(self):
        """Determinism regression: one seed, two runs, same ledger."""
        a = run_overload_schedule(seed=5)
        b = run_overload_schedule(seed=5)
        assert (a.offered, a.admitted, a.shed, a.released,
                a.brownout_transitions, a.goodput_pps) == \
               (b.offered, b.admitted, b.shed, b.released,
                b.brownout_transitions, b.goodput_pps)

    def test_run_soak_dispatches_overload(self):
        config = SoakConfig(seed=9, schedules=1, duration_s=120e-3,
                            chain_lengths=(3,), f_values=(1,),
                            overload=OverloadSpec())
        soak = run_soak(config)
        assert soak.ok, soak.summary()
        assert soak.schedules[0].shed > 0
        assert "overload" in soak.summary()
