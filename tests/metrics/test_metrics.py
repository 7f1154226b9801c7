"""Tests for meters, statistics, and report formatting."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    EgressRecorder,
    LatencySampler,
    ThroughputMeter,
    confidence_interval95,
    format_table,
    mean,
    percentile,
    stdev,
)
from repro.net import FlowKey, Packet
from repro.sim import Simulator


def _pkt(created_at=0.0, size=256):
    return Packet(flow=FlowKey(1, 2, 3, 4), size=size, created_at=created_at)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stdev_constant_is_zero(self):
        assert stdev([5, 5, 5]) == 0

    def test_stdev_single_sample(self):
        assert stdev([7]) == 0.0

    def test_percentile_bounds(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100
        assert percentile(data, 50) == 50

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == 5

    def test_percentile_range_check(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50))
    def test_percentile_within_data_range(self, data):
        for q in (0, 25, 50, 75, 100):
            assert min(data) <= percentile(data, q) <= max(data)

    def test_confidence_interval(self):
        center, half = confidence_interval95([10.0] * 20)
        assert center == 10.0 and half == 0.0
        center, half = confidence_interval95([1.0, 2.0, 3.0, 4.0])
        assert half > 0


class TestThroughputMeter:
    def test_rate_over_window(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)

        def feed(sim):
            for _ in range(100):
                yield sim.timeout(1e-6)
                meter.record(_pkt())

        sim.process(feed(sim))
        sim.run()
        assert meter.rate_pps() == pytest.approx(1e6, rel=0.05)

    def test_start_window_discards_warmup(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)

        def feed(sim):
            for i in range(100):
                yield sim.timeout(1e-6)
                meter.record(_pkt())
                if i == 49:
                    meter.start_window()

        sim.process(feed(sim))
        sim.run()
        assert meter.count == 50

    def test_gbps(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)

        def feed(sim):
            yield sim.timeout(1e-3)
            for _ in range(1000):
                meter.record(_pkt(size=1250))
            yield sim.timeout(1e-3)

        meter.start_window()
        sim.process(feed(sim))
        sim.run()
        # 1000 * 1250 B over 2 ms = 5 Gbps... computed over elapsed.
        assert meter.rate_gbps() == pytest.approx(
            1000 * 1250 * 8 / meter.elapsed / 1e9)



class TestLatencySampler:
    def test_records_sojourn_time(self):
        sim = Simulator()
        sampler = LatencySampler(sim)

        def feed(sim):
            pkt = _pkt(created_at=sim.now)
            yield sim.timeout(100e-6)
            sampler.record(pkt)

        sim.process(feed(sim))
        sim.run()
        assert sampler.mean_us() == pytest.approx(100.0)

    def test_warmup_filtering(self):
        sim = Simulator()
        sampler = LatencySampler(sim)
        sampler.start_after(1.0)

        def feed(sim):
            early = _pkt(created_at=0.5)
            yield sim.timeout(2.0)
            sampler.record(early)
            sampler.record(_pkt(created_at=1.5))

        sim.process(feed(sim))
        sim.run()
        assert len(sampler) == 1

class TestEgressRecorder:
    def test_combines_meters(self):
        sim = Simulator()
        egress = EgressRecorder(sim, keep_packets=True)
        egress(_pkt())
        egress(_pkt())
        assert egress.count == 2
        assert len(egress.packets) == 2
        assert len(egress.latency) == 2


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [10, 20]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_width_check(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

class TestWarmupWindowReset:
    """start_window must forget *everything* about warm-up traffic."""

    def _fed_meter(self):
        sim = Simulator()
        meter = ThroughputMeter(sim)

        def feed(sim):
            for _ in range(40):
                meter.record(_pkt(size=1500))
            yield sim.timeout(1e-3)
            meter.start_window()
            for _ in range(10):
                meter.record(_pkt(size=100))
            yield sim.timeout(1e-3)

        sim.process(feed(sim))
        sim.run()
        return meter

    def test_bytes_reset(self):
        meter = self._fed_meter()
        assert meter.bytes == 10 * 100
        assert meter.rate_gbps() == pytest.approx(
            10 * 100 * 8 / 1e-3 / 1e9)


class TestPercentileEdges:
    def test_single_sample_any_q(self):
        for q in (0, 37.5, 100):
            assert percentile([42.0], q) == 42.0

    def test_q0_and_q100_are_extremes(self):
        data = [5.0, 1.0, 9.0, 3.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0


class TestEmptySamplerGuards:
    def test_mean_and_percentile_nan(self):
        import math

        sim = Simulator()
        sampler = LatencySampler(sim)
        assert math.isnan(sampler.mean_us())
        assert math.isnan(sampler.percentile_us(99))
