"""Tests for the experiment harness (fast, shrunken windows)."""

import pytest

from repro.chaos.scenario import mbox, monitors
from repro.experiments import ExperimentResult, build_system
from repro.experiments.runner import (latency_under_load, measure,
                                      saturation_throughput)
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.sim import Simulator


class TestExperimentResult:
    def test_add_appends_rows(self):
        result = ExperimentResult("X", headers=["a", "b"])
        result.add(1, 2)
        result.add(3, 4)
        assert result.rows == [(1, 2), (3, 4)]

    def test_render_includes_title_and_notes(self):
        result = ExperimentResult("Title", headers=["a"])
        result.add(1)
        result.notes.append("hello")
        text = result.render()
        assert "Title" in text and "hello" in text


class TestBuildSystem:
    @pytest.mark.parametrize("kind", ["nf", "FTC", "ftmb", "FTMB+Snapshot"])
    def test_known_kinds(self, kind):
        sim = Simulator()
        system = build_system(kind, sim, ch_n(2, n_threads=2),
                              EgressRecorder(sim), n_threads=2)
        assert hasattr(system, "ingress")
        assert hasattr(system, "total_released")

    def test_unknown_kind_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_system("paxos", sim, ch_n(1), lambda p: None)


class TestMeasurements:
    def test_saturation_respects_nic_cap(self):
        mpps = measure(saturation_throughput(
            "nf", (mbox("monitor", name="m", n_threads=2),), threads=2,
            warm_s=0.3e-3, window_s=0.7e-3)).throughput.rate_mpps()
        # Two threads of Monitor: CPU-bound below the NIC cap.
        assert 0 < mpps <= 10.5

    def test_saturation_deterministic_given_seed(self):
        def once():
            return measure(saturation_throughput(
                "ftc", monitors(2, n_threads=2), threads=2,
                warm_s=0.3e-3, window_s=0.7e-3,
                seed=5)).throughput.rate_mpps()

        assert once() == once()

    def test_latency_under_light_load_near_floor(self):
        egress = measure(latency_under_load(
            "nf", monitors(2, n_threads=2), rate_pps=1e5, threads=2,
            warm_s=0.3e-3, window_s=1e-3))
        assert len(egress.latency) > 0
        assert egress.latency.mean_us() < 30

    def test_latency_grows_with_load(self):
        def mean_us(rate_pps):
            return measure(latency_under_load(
                "nf", (mbox("monitor", name="m", n_threads=1),),
                rate_pps=rate_pps, threads=1, warm_s=0.3e-3,
                window_s=1.5e-3)).latency.mean_us()

        assert mean_us(3.4e6) > mean_us(0.5e6)
