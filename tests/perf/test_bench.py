"""Perfscope's scenarios: registry, determinism, the zero-perturbation
pledge and the audited run (their exact counts are data-path golden
cases, ``tests/test_datapath_golden.py``)."""

import dataclasses
import time

import pytest

from repro.chaos import run
from repro.core import FTCChain
from repro.perf import StageProfiler
from repro.perf.scenarios import (
    QUICK_DURATION_S,
    RATE_PPS,
    SCENARIOS,
    run_scenario,
    scenario_names,
)


class TestScenarioRegistry:
    def test_six_scenarios(self):
        assert scenario_names() == [
            "baseline", "reliable-links", "lossy", "ctrlplane-failover",
            "reconfig-under-traffic", "overload"]

    def test_cli_choices_stay_in_sync(self):
        from repro.perf.cli import SCENARIO_CHOICES
        assert tuple(scenario_names()) == SCENARIO_CHOICES

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("nope")


class TestDeterminism:
    def test_same_seed_same_results_and_call_counts(self):
        profilers = [StageProfiler(), StageProfiler()]
        results = [run_scenario("baseline", seed=3, quick=True, profiler=p)
                   for p in profilers]
        assert results[0] == results[1]
        assert profilers[0].calls == profilers[1].calls

    def test_profiler_does_not_perturb_virtual_time(self):
        plain = run_scenario("baseline", seed=1, quick=True, profiler=None)
        profiled = run_scenario("baseline", seed=1, quick=True,
                                profiler=StageProfiler())
        assert plain == profiled


class TestScenarioShapes:
    """Cheap structural checks on the non-baseline scenarios (quick)."""

    def test_overload_sheds(self):
        result = run_scenario("overload", seed=0, quick=True)
        assert result["admitted"] + result["shed"] == result["offered"]
        assert result["shed"] > 0

    def test_lossy_retransmits_and_recovers(self):
        result = run_scenario("lossy", seed=0, quick=True)
        assert result["released"] == result["offered"]
        assert result["retransmissions"] > 0

    def test_reconfig_commits(self):
        result = run_scenario("reconfig-under-traffic", seed=0, quick=True)
        assert result["reconfig_committed"] is True
        assert result["released"] == result["offered"]

    def test_ctrlplane_recovers(self):
        result = run_scenario("ctrlplane-failover", seed=0, quick=True)
        assert result["recoveries"] >= 1


class TestAuditedBench:
    def test_duplicate_release_cannot_post_a_number(self, monkeypatch):
        """A release gate that fires twice for one packet must fail the
        run with the oracle's violation, not return a result (the suite
        used to compare only offered/released across its two passes)."""
        deliver = FTCChain._deliver
        released = []

        def deliver_one_twice(chain, packet):
            deliver(chain, packet)
            released.append(packet.pid)
            if len(released) == 100:
                deliver(chain, packet)

        monkeypatch.setattr(FTCChain, "_deliver", deliver_one_twice)
        with pytest.raises(AssertionError,
                           match="release-safety: 1 duplicate releases"):
            run_scenario("baseline", seed=0, quick=True)

    def test_armed_overload_stack_is_a_constant_factor(self):
        """Admission + backpressure bus + SLO watchdog + brownout wired
        under admissible load (budget 2x offered, an SLO that never
        breaches) run the full per-packet path yet must simulate no
        worse than 3x slower than baseline -- O(1) per packet, not a
        new complexity class -- and release everything they admit."""
        baseline = SCENARIOS["baseline"](0, QUICK_DURATION_S)
        armed = dataclasses.replace(baseline, admission_pps=RATE_PPS * 2,
                                    slo_p99_us=1e6)
        walls = []
        for scenario in (baseline, armed):
            t0 = time.perf_counter()
            out = run(scenario).checked()
            walls.append(time.perf_counter() - t0)
            assert out.oracle.released == out.generator.sent > 0
        assert out.admission.admitted == out.generator.sent
        assert walls[1] <= 3.0 * walls[0]
