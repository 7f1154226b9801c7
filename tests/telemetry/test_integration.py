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
        assert result.registry.snapshot()["orch/recoveries"] >= 1
        events = [e for out in result.runs
                  for e in out.chain.telemetry.timeline.events]
        assert any(e.kind == "fault-injected" for e in events)
        assert any(e.kind == "committed" for e in events)

    def test_soak_without_telemetry_has_none(self):
        from repro.chaos import chaos_scenario, run_soak

        result = run_soak([chaos_scenario(seed=30_000, chain_length=2, f=1,
                                          max_faults=1, duration_s=0.02)])
        assert result.registry is None
        assert all(not out.chain.telemetry.enabled for out in result.runs)


class TestReadMetrics:
    """Counters and gauges are read from their owners at report time."""

    def test_commit_lag_reads_the_replicas_the_chain_holds(self):
        """After the leader crashes mid-recovery, each commit_lag row is
        the most logs any current replica retains for that middlebox --
        not the last value some since-replaced replica pushed (0)."""
        from repro.chaos import Scenario, Step, run
        from repro.chaos.scenario import monitors
        from repro.chaos.plan import FaultSpec
        from repro.chaos.soak import SOAK_COSTS

        scenario = Scenario(
            chain=monitors(3), f=1, seed=0, costs=SOAK_COSTS,
            duration_s=40e-3, drain_s=40e-3, rate_pps=2e4,
            orchestrators=3, heartbeat_interval_s=1e-3,
            faults=(FaultSpec(kind="orch-crash", phase="fetching",
                              restart_after_s=30e-3),),
            steps=(Step(10e-3, crash=1, expect="recovered"),))
        telemetry = Telemetry(max_trace_events=0)
        out = run(scenario, telemetry=telemetry)
        rows = {row[0]: row for row in telemetry.registry.rows()}
        lags = {}
        for mbox in out.chain.middleboxes:
            retained = [len(replica.states[mbox.name].retained)
                        for replica in out.chain.replicas
                        if mbox.name in replica.states]
            row = rows[f"repl/{mbox.name}/commit_lag"]
            assert row[1] == "gauge"
            assert row[2] == max(retained), mbox.name
            lags[mbox.name] = row[2]
        assert lags["monitor1"] == 600   # both replicas still hold them

    @staticmethod
    def _restructured():
        """``reconfig-orch3``: its insert/remove clears the hop channels."""
        from repro.chaos import run
        from repro.chaos.soak import reconfig_scenario

        telemetry = Telemetry(max_trace_events=0)
        out = run(reconfig_scenario(0, orchestrators=3), telemetry=telemetry)
        assert any(r.committed and r.op.kind in ("insert", "remove")
                   for r in out.reconfigs)
        return out.chain, telemetry.registry.snapshot()

    def test_channel_counters_sum_every_channel_ever_registered(self):
        chain, counters = self._restructured()
        live = sum(channel.retransmissions
                   for channel in chain._channels.values())
        assert counters["channel/retransmissions"] == 62 > live
        assert counters["channel/nacks"] == 60
        assert counters["channel/dup_dropped"] == 24

    def test_channel_stats_keep_cleared_channels_counts(self):
        chain, counters = self._restructured()
        stats = chain.channel_stats()
        assert stats["retransmissions"] == counters["channel/retransmissions"]
        assert stats["nacks_sent"] == counters["channel/nacks"]
        assert stats["dup_dropped"] == counters["channel/dup_dropped"]
        assert stats["sent"] > sum(channel.sent
                                   for channel in chain._channels.values())
