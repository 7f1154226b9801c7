"""Workload layer tests (PROTOCOL.md §12.1): heavy-tailed flows,
diurnal cycles, flash crowds, seeded determinism."""

import math

from hypothesis import given, settings, strategies as st

import pytest

from repro.net import FlashCrowd, WorkloadGenerator, WorkloadSpec
from repro.sim import RandomStreams, Simulator


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.rate_at(0.0) == spec.base_pps

    @pytest.mark.parametrize("kwargs,match", [
        (dict(base_pps=0), "base_pps"),
        (dict(diurnal_amplitude=1.5), "diurnal_amplitude"),
        (dict(diurnal_period_s=0), "diurnal_period_s"),
        (dict(pareto_alpha=0), "pareto_alpha"),
        (dict(n_flows=0), "n_flows"),
        (dict(n_classes=0), "n_classes"),
        (dict(packet_size=32), "packet_size"),
        (dict(arrivals="fractal"), "arrival"),
    ])
    def test_rejects_bad_fields(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            WorkloadSpec(**kwargs)

    def test_flash_validation(self):
        with pytest.raises(ValueError, match="duration_s"):
            FlashCrowd(at_s=0.0, duration_s=0.0, multiplier=4.0)
        with pytest.raises(ValueError, match="multiplier"):
            FlashCrowd(at_s=0.0, duration_s=1.0, multiplier=0.0)


class TestSpecParse:
    def test_round_trip(self):
        spec = WorkloadSpec.parse(
            "base=2e4, flash=0.01:0.02:4+0.05:0.01:2, "
            "diurnal=0.3:0.05, alpha=1.1, flows=16, classes=2, "
            "size=128, arrivals=deterministic")
        assert spec.base_pps == 2e4
        assert len(spec.flashes) == 2
        assert spec.flashes[1].multiplier == 2.0
        assert spec.diurnal_amplitude == 0.3
        assert spec.n_flows == 16
        assert spec.packet_size == 128
        assert "flash=4x" in spec.describe()

    @pytest.mark.parametrize("text,match", [
        ("base", "key=value"),
        ("turbo=9", "unknown workload key"),
        ("base=fast", "bad value"),
        ("flash=0.01:4", "at:dur:mult"),
        ("diurnal=0.3", "amplitude:period"),
    ])
    def test_parse_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            WorkloadSpec.parse(text)


class TestRateComposition:
    def test_flash_multiplies_base(self):
        spec = WorkloadSpec(base_pps=1e4, flashes=(
            FlashCrowd(at_s=0.01, duration_s=0.02, multiplier=4.0),))
        assert spec.rate_at(0.005) == 1e4
        assert spec.rate_at(0.02) == 4e4
        assert spec.rate_at(0.03) == 1e4      # window is half-open

    def test_diurnal_cycle(self):
        spec = WorkloadSpec(base_pps=1e4, diurnal_amplitude=0.5,
                            diurnal_period_s=1.0)
        assert spec.rate_at(0.25) == pytest.approx(1.5e4)
        assert spec.rate_at(0.75) == pytest.approx(0.5e4)

    def test_overlapping_flashes_stack(self):
        spec = WorkloadSpec(base_pps=1e3, flashes=(
            FlashCrowd(0.0, 1.0, 2.0), FlashCrowd(0.5, 1.0, 3.0)))
        assert spec.rate_at(0.75) == pytest.approx(6e3)

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_rate_bounded_by_peak(self, t):
        spec = WorkloadSpec(base_pps=1e4, diurnal_amplitude=0.4,
                            flashes=(FlashCrowd(1.0, 2.0, 8.0),))
        rate = spec.rate_at(t)
        # Peak: base x (1 + diurnal amplitude) x every flash multiplier.
        assert 0 < rate <= 1e4 * 1.4 * 8.0 + 1e-9
        assert math.isfinite(rate)


def _drive(seed, duration_s=20e-3, **spec_kw):
    sim = Simulator()
    out = []
    spec = WorkloadSpec(base_pps=5e3, n_flows=16, n_classes=3, **spec_kw)
    gen = WorkloadGenerator(sim, out.append, spec, n_queues=2,
                            streams=RandomStreams(seed))
    sim.run(until=duration_s)
    gen.stop()
    return gen, out


class TestWorkloadGenerator:
    def test_same_seed_same_stream(self):
        _, a = _drive(seed=7)
        _, b = _drive(seed=7)
        assert [(p.flow, p.meta["prio"]) for p in a] == \
               [(p.flow, p.meta["prio"]) for p in b]

    def test_different_seed_differs(self):
        _, a = _drive(seed=7)
        _, b = _drive(seed=8)
        assert [p.flow for p in a] != [p.flow for p in b]

    def test_priority_stamped_consistently(self):
        gen, out = _drive(seed=1)
        index_of = {flow: i for i, flow in enumerate(gen.flows)}
        for packet in out:
            assert packet.meta["prio"] == index_of[packet.flow] % 3
        assert gen.sent == len(out)
        assert gen.sent_by_class == [
            sum(1 for p in out if p.meta["prio"] == c) for c in range(3)]

    def test_heavy_tail_elephants_dominate(self):
        gen, out = _drive(seed=3, duration_s=50e-3, pareto_alpha=1.3)
        index_of = {flow: i for i, flow in enumerate(gen.flows)}
        head = sum(1 for p in out if index_of[p.flow] < 4)
        # With alpha=1.3 over 16 flows the top-4 carry ~66% of weight.
        assert head / len(out) > 0.5

    def test_flash_window_raises_rate(self):
        flash = FlashCrowd(at_s=5e-3, duration_s=5e-3, multiplier=8.0)
        gen, out = _drive(seed=2, duration_s=15e-3, flashes=(flash,),
                          arrivals="deterministic")
        inside = sum(1 for p in out if 5e-3 <= p.created_at < 10e-3)
        outside = sum(1 for p in out if p.created_at < 5e-3)
        assert inside > 4 * max(1, outside)
