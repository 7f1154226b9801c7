"""SLO watchdog: spec grammar, windowed evaluation, breach plumbing."""

from types import SimpleNamespace

import pytest

from repro.flight import (
    FlightRecorder,
    SLOObjective,
    SLOWatchdog,
    parse_slo_spec,
    run_probes,
)
from repro.flight.slo import DEFAULT_EVAL_INTERVAL_S
from repro.sim import Simulator
from repro.telemetry import Telemetry


class TestSpecGrammar:
    def test_parse_round_trips(self):
        objectives = parse_slo_spec(
            "p99_latency_us<=250, goodput_pps>=5e5,retransmit_rate<=0.01")
        assert [str(o) for o in objectives] == [
            "p99_latency_us<=250", "goodput_pps>=500000",
            "retransmit_rate<=0.01"]

    @pytest.mark.parametrize("bad", ["", "latency", "x<=abc", "<=5",
                                     "a==3"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_slo_spec(bad)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="operator"):
            SLOObjective("x", "<", 1.0)

    def test_met_by(self):
        assert SLOObjective("lat", "<=", 100.0).met_by(100.0)
        assert not SLOObjective("lat", "<=", 100.0).met_by(100.1)
        assert SLOObjective("tput", ">=", 10.0).met_by(10.0)
        assert not SLOObjective("tput", ">=", 10.0).met_by(9.9)


class TestWatchdog:
    def _watchdog(self, values, telemetry=None):
        """A watchdog over a scripted probe: pops one value per tick
        (every 2 ms, the default cadence)."""
        sim = Simulator()
        feed = list(values)
        probes = {"lat": lambda: feed.pop(0) if feed else None}
        watchdog = SLOWatchdog(
            sim, [SLOObjective("lat", "<=", 100.0)], probes,
            telemetry=telemetry)
        assert watchdog.interval_s == DEFAULT_EVAL_INTERVAL_S == 2e-3
        return sim, watchdog

    def test_breaches_are_recorded_with_worst_value(self):
        sim, watchdog = self._watchdog([50.0, 150.0, 120.0, 80.0])
        watchdog.start()
        sim.run(until=10e-3)
        assert len(watchdog.breaches) == 2
        assert watchdog.worst["lat"] == 150.0
        # The last value, 80, was observed and met the objective.
        assert [b.observed for b in watchdog.breaches] == [150.0, 120.0]
        assert not watchdog.ok
        first = watchdog.breaches[0]
        assert first.observed == 150.0
        assert "SLO breach" in str(first)

    def test_none_probe_values_are_skipped(self):
        sim, watchdog = self._watchdog([])
        watchdog.start()
        sim.run(until=9e-3)
        assert watchdog.evaluations >= 4
        assert watchdog.breaches == []
        assert watchdog.ok

    def test_breach_lands_in_flight_and_metrics(self):
        flight = FlightRecorder()
        telemetry = Telemetry(flight=flight)
        sim, watchdog = self._watchdog([500.0], telemetry=telemetry)
        watchdog.start()
        sim.run(until=3e-3)
        kinds = [(e.component, e.kind) for e in flight.events]
        assert ("slo", "breach") in kinds
        rows = {name: value for name, _, value, *_ in
                telemetry.registry.rows()}
        assert rows["slo/breaches"] == 1

    def test_unknown_indicator_rejected_up_front(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="no probe"):
            SLOWatchdog(sim, [SLOObjective("nope", "<=", 1.0)], {})

    def test_stop_halts_ticks(self):
        sim, watchdog = self._watchdog([50.0] * 100)
        watchdog.start()
        sim.run(until=3e-3)
        seen = watchdog.evaluations
        watchdog.stop()
        sim.run(until=10e-3)
        assert watchdog.evaluations == seen


class TestRunProbes:
    def test_goodput_is_windowed_by_differencing(self):
        class FakeSim:
            now = 0.0

        class FakeThroughput:
            count = 0

        class FakeLatency:
            def __len__(self):
                return 0

        class FakeEgress:
            sim = FakeSim()
            throughput = FakeThroughput()
            latency = FakeLatency()

        egress = FakeEgress()
        probes = run_probes(egress)
        assert probes["goodput_pps"]() is None  # no window yet
        egress.sim.now = 1e-3
        egress.throughput.count = 10
        assert probes["goodput_pps"]() == pytest.approx(10 / 1e-3)
        egress.sim.now = 2e-3
        egress.throughput.count = 15
        assert probes["goodput_pps"]() == pytest.approx(5 / 1e-3)
        assert probes["p99_latency_us"]() is None

    def test_detection_and_retransmit_probes_gate_on_sources(self):
        class FakeEgress:
            pass

        probes = run_probes(FakeEgress())
        assert set(probes) == {"p99_latency_us", "goodput_pps"}

        class FakeChain:
            def channel_stats(self):
                return {"retransmissions": 3, "sent": 100}

        class FakeOrch:
            history = []

        probes = run_probes(FakeEgress(), chain=FakeChain(),
                            orchestrator=FakeOrch())
        assert {"detection_s", "recovery_s", "retransmit_rate"} <= set(probes)
        assert probes["detection_s"]() is None
        assert probes["retransmit_rate"]() == pytest.approx(0.03)

    def test_recovery_is_the_slowest_finished_recovery(self):
        """``recovery_s`` reads None until a recovery report exists
        (a detected failure still recovering has none), then the
        largest ``report.total_s`` so far."""
        class FakeOrch:
            history = []

        class FakeEgress:
            pass

        orchestrator = FakeOrch()
        recovery_s = run_probes(FakeEgress(),
                                orchestrator=orchestrator)["recovery_s"]
        assert recovery_s() is None
        orchestrator.history.append(SimpleNamespace(report=None))
        assert recovery_s() is None
        orchestrator.history.append(
            SimpleNamespace(report=SimpleNamespace(total_s=4e-3)))
        orchestrator.history.append(
            SimpleNamespace(report=SimpleNamespace(total_s=1e-3)))
        assert recovery_s() == 4e-3
        orchestrator.history.append(
            SimpleNamespace(report=SimpleNamespace(total_s=9e-3)))
        assert recovery_s() == 9e-3
