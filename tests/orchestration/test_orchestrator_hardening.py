"""Hardened recovery path: failures during recovery, control-plane
retries, graceful degradation (the §5.2 robustness envelope)."""

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.core import FTCChain, RECOVERY_PHASES
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import CloudNetwork, Orchestrator, place_chain
from repro.sim import Simulator, Timeout

COSTS = CostModel(cycle_jitter_frac=0.0)


def _setup(sim, regions=None, n=3, f=1, seed=0, rtt_jitter=0.0):
    net = CloudNetwork(sim, hop_delay_s=COSTS.hop_delay_s,
                       bandwidth_bps=COSTS.bandwidth_bps,
                       rtt_jitter_frac=rtt_jitter, seed=seed)
    egress = EgressRecorder(sim)
    chain = FTCChain(sim, ch_n(n, n_threads=2), f=f, deliver=egress,
                     costs=COSTS, net=net, n_threads=2, seed=seed)
    if regions:
        place_chain(chain, regions)
    chain.start()
    orch = Orchestrator(sim, chain, region="core")
    orch.start()
    return chain, orch, egress


class TestPingHygiene:
    def test_ping_cancels_losing_deadline(self):
        """Regression: the AnyOf race inside a heartbeat must withdraw
        its loser, not leave live timeouts in the queue."""
        sim = Simulator()
        net = CloudNetwork(sim, hop_delay_s=COSTS.hop_delay_s,
                           bandwidth_bps=COSTS.bandwidth_bps,
                           rtt_jitter_frac=0.0)
        net.add_server("s0")
        net.add_server("s1")

        # A bare chain facade: the queue then holds only ping events.
        class _Chain:
            def __init__(self):
                self.net = net
                self.route = ["s0", "s1"]

            def server_at(self, position):
                return net.servers[self.route[position]]

        orch = Orchestrator(sim, _Chain())
        ping = sim.process(orch._ping(0))
        sim.run(until=ping)
        stale = [event for _, _, _, event in sim._queue
                 if isinstance(event, Timeout) and not event._cancelled]
        assert stale == []
        assert orch._misses[0] == 0  # the ping itself succeeded

    def test_ping_against_dead_server_misses(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        chain.server_at(1).fail()
        ping = sim.process(orch._ping(1))
        sim.run(until=ping)
        assert orch._misses[1] == 1


class TestFailureDuringRecovery:
    def test_crash_during_recovery_union_reentry(self):
        """Acceptance: a crash injected while state recovery is fetching
        (via a recovery-phase hook) is detected and recovered -- the
        running attempt aborts and re-enters with the union (§5.2)."""
        sim = Simulator()
        # WAN placement makes the fetch slow enough (~100 ms) for the
        # second crash to be *detected* mid-recovery.
        chain, orch, egress = _setup(
            sim, regions=["core", "remote", "neighbor", "core"], n=4, f=2)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(8, 2))
        plan = FaultPlan([
            FaultSpec(kind="crash", at_s=0.01, position=1),
            FaultSpec(kind="crash-during-recovery", position=3,
                      phase="fetching")])
        injector = FaultInjector(chain, orch, plan)
        injector.start()
        heartbeats_at_crash = []
        orch.recovery_hooks.append(
            lambda phase, _pos: heartbeats_at_crash.append(
                orch.heartbeats_sent) if phase == "fetching" else None)
        sim.run(until=0.6)

        assert len(injector.injected) == 2
        assert len(orch.history) == 2
        first, second = orch.history
        assert first.positions == [1]
        assert second.positions == [3]
        # The first attempt was aborted and re-entered with the union.
        assert first.recovery_attempts >= 2
        assert first.recovered and second.recovered
        assert not chain.degraded
        for position in range(chain.n_positions):
            assert not chain.server_at(position).failed
        # Monitoring never paused: heartbeats kept flowing between the
        # two fetching phases.
        assert len(heartbeats_at_crash) >= 2
        assert heartbeats_at_crash[-1] > heartbeats_at_crash[0]

    def test_traffic_flows_after_union_recovery(self):
        sim = Simulator()
        chain, orch, egress = _setup(
            sim, regions=["core", "remote", "neighbor", "core"], n=4, f=2)
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                               flows=balanced_flows(8, 2))
        plan = FaultPlan([
            FaultSpec(kind="crash", at_s=0.01, position=1),
            FaultSpec(kind="crash-during-recovery", position=3,
                      phase="fetching")])
        FaultInjector(chain, orch, plan).start()
        sim.run(until=0.55)
        released_mid = chain.total_released()
        sim.run(until=0.7)
        gen.stop()
        sim.run(until=0.72)
        assert chain.total_released() > released_mid > 0


class TestSimultaneousFailures:
    def test_correlated_multi_crash_single_recovery(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim, n=4, f=2)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(8, 2))
        plan = FaultPlan([FaultSpec(kind="crash", at_s=0.01, position=0),
                          FaultSpec(kind="crash", at_s=0.01, position=2)])
        FaultInjector(chain, orch, plan).start()
        sim.run(until=0.15)
        assert len(orch.history) == 1
        event = orch.history[0]
        assert event.positions == [0, 2]
        assert event.recovered
        assert event.report.positions == [0, 2]
        for position in range(chain.n_positions):
            assert not chain.server_at(position).failed


class TestGracefulDegradation:
    def test_more_than_f_failures_degrade_not_crash(self):
        """>f members of a group gone: the chain flags degraded, the
        event carries the error, and the simulation keeps running."""
        sim = Simulator()
        chain, orch, egress = _setup(sim, n=3, f=1)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(8, 2))
        # Positions 1 and 2 are both in monitor2's group: unrecoverable.
        plan = FaultPlan([FaultSpec(kind="crash", at_s=0.01, position=1),
                          FaultSpec(kind="crash", at_s=0.01, position=2)])
        FaultInjector(chain, orch, plan).start()
        sim.run(until=0.1)

        assert chain.degraded
        assert "no alive replica" in chain.degraded_reason
        event = orch.history[0]
        assert event.error is not None
        assert not event.recovered
        assert orch.lost_positions == {1, 2}
        # The orchestrator survives and keeps monitoring the rest.
        sent = orch.heartbeats_sent
        sim.run(until=0.15)
        assert orch.heartbeats_sent > sent
        assert orch.history[0] is event  # no spurious re-detections

    def test_degraded_chain_meters_keep_reporting(self):
        sim = Simulator()
        chain, orch, egress = _setup(sim, n=3, f=1)
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                               flows=balanced_flows(8, 2))
        plan = FaultPlan([FaultSpec(kind="crash", at_s=0.02, position=1),
                          FaultSpec(kind="crash", at_s=0.02, position=2)])
        FaultInjector(chain, orch, plan).start()
        sim.run(until=0.1)
        gen.stop()
        sim.run(until=0.11)
        # Packets released before the double fault stay counted.
        assert chain.total_released() > 0
        assert chain.packets_in > chain.total_released()


class TestControlPlaneImpairment:
    def test_lost_control_messages_do_not_hang_recovery(self):
        """Acceptance: with a 30% control-message drop rate, detection
        and recovery still complete (retry/backoff absorbs the loss)."""
        sim = Simulator()
        chain, orch, _ = _setup(sim, n=3, f=1, seed=11)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(8, 2))
        # Drops cover the crash, its detection, and the whole recovery.
        chain.net.impair(drop_rate=0.3, duration_s=0.08, seed=11)
        sim.schedule_callback(0.01, lambda: chain.fail_position(1))
        sim.run(until=0.3)

        recovered = [e for e in orch.history if e.recovered]
        assert recovered, "no recovery completed under 30% drops"
        assert not chain.degraded
        assert chain.net.control_drops > 0
        assert orch.control_retries > 0
        for position in range(chain.n_positions):
            assert not chain.server_at(position).failed

    def test_recovery_hook_phases_fire_in_order(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim, n=3, f=1)
        phases = []
        orch.recovery_hooks.append(lambda phase, _pos: phases.append(phase))
        sim.schedule_callback(0.01, lambda: chain.fail_position(1))
        sim.run(until=0.1)
        assert phases == list(RECOVERY_PHASES)
        assert orch.history[0].recovered
