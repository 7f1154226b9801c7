"""End-to-end telemetry tests against the FTC chain.

The two load-bearing guarantees:

* **No-op parity** -- running the same seed with and without a
  ``Telemetry`` attached produces bit-identical results, because the
  hooks never touch the simulation clock or any RNG stream.
* **Timeline exactness** -- the stitched recovery timeline's per-phase
  durations sum to exactly the ``RecoveryReport`` total the
  orchestrator measured (same subtractions at the same instants).
"""

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import CloudNetwork, Orchestrator
from repro.sim import Simulator
from repro.telemetry import Telemetry, validate_chrome_trace

COSTS = CostModel(cycle_jitter_frac=0.0)


def _run_once(telemetry=None, fail_position=None, seed=0):
    sim = Simulator()
    net = CloudNetwork(sim, hop_delay_s=COSTS.hop_delay_s,
                       bandwidth_bps=COSTS.bandwidth_bps, rtt_jitter_frac=0.0)
    egress = EgressRecorder(sim)
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=egress,
                     costs=COSTS, net=net, n_threads=2, seed=seed,
                     telemetry=telemetry)
    chain.start()
    orch = Orchestrator(sim, chain, region="core")
    orch.start()
    TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                     flows=balanced_flows(4, 2))
    if fail_position is not None:
        sim.schedule_callback(0.01,
                              lambda: chain.fail_position(fail_position))
    sim.run(until=0.08)
    return sim, chain, orch, egress


class TestNoOpParity:
    def test_identical_without_failure(self):
        _, chain_a, _, egress_a = _run_once(telemetry=None)
        _, chain_b, _, egress_b = _run_once(telemetry=Telemetry())
        assert chain_a.packets_in == chain_b.packets_in
        assert chain_a.total_released() == chain_b.total_released()
        assert egress_a.latency.samples == egress_b.latency.samples

    def test_identical_through_recovery(self):
        _, chain_a, orch_a, egress_a = _run_once(telemetry=None,
                                                 fail_position=1)
        _, chain_b, orch_b, egress_b = _run_once(telemetry=Telemetry(),
                                                 fail_position=1)
        assert chain_a.total_released() == chain_b.total_released()
        assert egress_a.latency.samples == egress_b.latency.samples
        report_a = orch_a.history[0].report
        report_b = orch_b.history[0].report
        assert report_a.total_s == report_b.total_s
        assert orch_a.history[0].detected_at == orch_b.history[0].detected_at


class TestTimelineExactness:
    def test_phases_sum_to_report_total(self):
        telemetry = Telemetry()
        _, _, orch, _ = _run_once(telemetry=telemetry, fail_position=1)
        (event,) = orch.history
        (attempt,) = telemetry.timeline.committed_attempts()
        # Exact equality: the timeline records fire at the instants the
        # report's own subtractions are taken.
        assert attempt.total_s == event.report.total_s
        assert attempt.phases["initialization"] == \
            event.report.initialization_s
        assert attempt.phases["state_recovery"] == \
            event.report.state_recovery_s
        assert attempt.phases["rerouting"] == event.report.rerouting_s

    def test_detection_events_precede_recovery(self):
        telemetry = Telemetry()
        _run_once(telemetry=telemetry, fail_position=2)
        kinds = [e.kind for e in telemetry.timeline.events]
        assert kinds.index("suspected") < kinds.index("confirmed")
        assert kinds.index("confirmed") < kinds.index("initializing")


class TestLiveMetricsAndTrace:
    def test_registry_populated(self):
        telemetry = Telemetry()
        _, _, _, egress = _run_once(telemetry=telemetry, fail_position=1)
        snap = telemetry.registry.snapshot()
        assert snap["orch/failures_detected"] == 1
        assert snap["orch/recoveries"] == 1
        assert snap["piggyback/bytes"]["count"] > 0
        # Every released packet went through the buffer hold histogram.
        assert snap["ftc/buffer/hold_time_s"]["count"] >= egress.count

    def test_trace_export_valid(self, tmp_path):
        telemetry = Telemetry(sample_every=5)
        _run_once(telemetry=telemetry, fail_position=1)
        assert len(telemetry.tracer.events) > 0
        trace = telemetry.export_chrome(str(tmp_path / "trace.json"))
        assert validate_chrome_trace(trace) == []
        # Sampled pids all honour the modulo rule.
        pids = {e["pid"] for e in telemetry.tracer.events}
        assert all(pid % 5 == 0 for pid in pids)

    def test_summary_table_renders(self):
        telemetry = Telemetry()
        _run_once(telemetry=telemetry)
        text = telemetry.summary_table()
        assert "telemetry summary" in text
        assert "stm/" in text and "piggyback/bytes" in text


class TestSoakTelemetry:
    def test_soak_aggregates_registry_and_timelines(self):
        from repro.chaos import chaos_scenario, run_soak

        result = run_soak(
            [chaos_scenario(seed=i, chain_length=2, f=1, max_faults=2,
                            duration_s=0.04, index=i) for i in range(2)],
            telemetry=True)
        assert result.ok, result.summary()
        assert result.registry is not None
        assert result.registry.counter("orch/recoveries").value >= 1
        events = [e for out in result.runs
                  for e in out.chain.telemetry.timeline.as_dicts()]
        assert any(e["kind"] == "fault-injected" for e in events)
        assert any(e["kind"] == "committed" for e in events)

    def test_soak_without_telemetry_has_none(self):
        from repro.chaos import chaos_scenario, run_soak

        result = run_soak([chaos_scenario(seed=30_000, chain_length=2, f=1,
                                          max_faults=1, duration_s=0.02)])
        assert result.registry is None
        assert all(out.chain.telemetry.timeline.as_dicts() == []
                   for out in result.runs)
