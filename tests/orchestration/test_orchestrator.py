"""Tests for heartbeat failure detection and orchestrated recovery."""

import pytest

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.core.reconfig import ReconfigOp
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.net import RetryPolicy, TrafficGenerator, balanced_flows
from repro.orchestration import (
    CloudNetwork,
    Orchestrator,
    OrchestratorEnsemble,
    place_chain,
)
from repro.sim import Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)


def _setup(sim, regions=None, n=3, **orch_kwargs):
    net = CloudNetwork(sim, hop_delay_s=COSTS.hop_delay_s,
                       bandwidth_bps=COSTS.bandwidth_bps, rtt_jitter_frac=0.0)
    egress = EgressRecorder(sim)
    chain = FTCChain(sim, ch_n(n, n_threads=2), f=1, deliver=egress,
                     costs=COSTS, net=net, n_threads=2)
    if regions:
        place_chain(chain, regions)
    chain.start()
    orch = Orchestrator(sim, chain, region="core", **orch_kwargs)
    orch.start()
    return chain, orch, egress


def _budget(orch):
    """One round's probe budget: every attempt times out."""
    policy = orch.heartbeat_retry
    return policy.max_attempts * policy.timeout_s


def _contract(orch):
    """PROTOCOL.md section 4: last answered tick -> declared."""
    return ((orch.misses_allowed + 1) * orch.heartbeat_interval_s
            + _budget(orch))


def _answer_latency(chain, rtt=0.0):
    """Tick -> answer of one 64 B + 64 B heartbeat.  ``detection_delay_s``
    runs from the last *answer*, so it is the contract minus this."""
    return rtt + 128 * 8.0 / chain.net.control_bandwidth_bps


def _record_rounds(orch):
    """Log ``(position, sent_at, answered_at)`` for every heartbeat."""
    log, ping = [], orch._ping

    def recording(position):
        sent = orch.sim.now
        yield from ping(position)
        log.append((position, sent, orch.sim.now))

    orch._ping = recording
    return log


class TestDetection:
    def test_no_failure_no_events(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2), count=200)
        sim.run(until=0.05)
        assert orch.history == []
        assert orch.heartbeats_sent > 0

    def test_failure_detected_and_recovered(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        sim.schedule_callback(0.01, lambda: chain.fail_position(1))
        sim.run(until=0.1)
        assert len(orch.history) == 1
        event = orch.history[0]
        assert event.positions == [1]
        assert event.report is not None
        assert not chain.server_at(1).failed

    def test_detection_delay_bounded_by_heartbeat_config(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        sim.schedule_callback(0.01, lambda: chain.fail_position(2))
        sim.run(until=0.1)
        event = orch.history[0]
        # Rounds sit on a fixed grid, so a silent replica costs
        # misses_allowed + 1 intervals plus the last round's probe
        # budget -- 7.6 ms at the defaults, not a loose multiple of it.
        assert _contract(orch) == pytest.approx(7.6e-3, abs=1e-12)
        assert event.detection_delay_s == pytest.approx(
            _contract(orch) - _answer_latency(chain), abs=1e-9)

    def test_traffic_flows_after_orchestrated_recovery(self):
        sim = Simulator()
        chain, orch, egress = _setup(sim)
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=2e5,
                               flows=balanced_flows(8, 2))
        sim.schedule_callback(0.01, lambda: chain.fail_position(1))
        sim.run(until=0.2)
        gen.stop()
        sim.run(until=0.21)
        released = chain.total_released()
        assert released > 0
        # Post-recovery consistency.
        for mbox in chain.middleboxes:
            index = chain.mbox_index(mbox.name)
            stores = [chain.store_of(mbox.name, p)
                      for p in chain.group_positions(index)]
            assert all(s == stores[0] for s in stores)
            assert mbox.total_count(stores[0]) >= released


class TestDetectionContract:
    """Heartbeat rounds sit on a fixed grid (PROTOCOL.md section 4).

    Every number here is the stated formula, not a measured bound; all
    of these fail when a round's probe time is added to the period.
    """

    @pytest.mark.parametrize("misses_allowed", [0, 2])
    @pytest.mark.parametrize("interval", [1e-3, 2e-3])
    def test_detection_delay_is_the_formula(self, interval, misses_allowed):
        sim = Simulator()
        chain, orch, _ = _setup(sim, heartbeat_interval_s=interval,
                                misses_allowed=misses_allowed)
        sim.schedule_callback(0.0101, lambda: chain.fail_position(2))
        sim.run(until=0.04)
        (event,) = orch.history
        assert _contract(orch) == pytest.approx(
            (misses_allowed + 1) * interval + 2 * 0.4 * interval, abs=1e-12)
        assert event.detection_delay_s == pytest.approx(
            _contract(orch) - _answer_latency(chain), abs=1e-9)

    def test_crash_phase_sweep_stays_inside_one_interval(self):
        """Crash -> declared depends only on where in the interval the
        crash falls: latest right after a tick, earliest right before."""
        delays = []
        for step in range(1, 9):
            sim = Simulator()
            chain, orch, _ = _setup(sim)
            interval = orch.heartbeat_interval_s
            crash_at = 0.01 + step * interval / 8
            sim.schedule_callback(crash_at,
                                  lambda: chain.fail_position(1))
            sim.run(until=0.03)
            (event,) = orch.history
            delays.append(event.detected_at - crash_at)
        low = orch.misses_allowed * interval + _budget(orch)
        assert all(low - 1e-9 <= d <= low + interval + 1e-9 for d in delays)
        assert delays == sorted(delays, reverse=True)
        assert delays[0] - delays[-1] == pytest.approx(7 * interval / 8)

    def test_healthy_round_k_starts_at_k_intervals(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        log = _record_rounds(orch)
        sim.run(until=0.0505)
        assert orch.history == []
        for position in range(chain.n_positions):
            sent = [t for p, t, _ in log if p == position]
            assert sent == pytest.approx(
                [k * orch.heartbeat_interval_s for k in range(1, 26)],
                abs=1e-12)

    def test_ensemble_adds_only_the_journal_quorum_round_trip(self):
        """One site, as ftcbench's failover-ch3 builds it."""
        sim = Simulator()
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1,
                         deliver=EgressRecorder(sim), costs=COSTS,
                         n_threads=2)
        chain.start()
        ensemble = OrchestratorEnsemble(sim, chain, n=3)
        ensemble.start()
        sim.schedule_callback(0.0301, lambda: chain.fail_position(1))
        sim.run(until=0.06)
        (event,) = ensemble.history
        assert event.recovered
        leader, net = ensemble.leader, chain.net
        rtt = net.control_rtt(leader.server_name, chain.route[0])
        assert rtt > 0  # probes leave the member's own server
        # declare-failed is journaled to a quorum first: one 128 B +
        # 64 B replication round trip to both peers, in parallel.
        journal = rtt + 192 * 8.0 / net.control_bandwidth_bps
        assert event.detection_delay_s == pytest.approx(
            _contract(leader.orch) - _answer_latency(chain, rtt) + journal,
            abs=1e-9)


class TestFixedGridTolerance:
    """What a period of exactly one interval must not cost
    (PROTOCOL.md section 4: blackout tolerance and the overrun rule)."""

    @staticmethod
    def _blackout(duration_s, start_s):
        """A total control-plane blackout over a healthy Ch-3."""
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        sim.schedule_callback(start_s, lambda: chain.net.impair(
            drop_rate=1.0, duration_s=duration_s))
        sim.run(until=start_s + duration_s + 0.02)
        assert chain.net.control_drops > 0
        return orch

    def test_blackout_tolerance_is_stated_not_discovered(self):
        """Failing over a live replica takes max_attempts *
        (misses_allowed + 1) consecutive lost probes; the grid fixes
        how little time that can span and how much always suffices."""
        orch = self._blackout(1e-3, 0.01)
        interval, policy = orch.heartbeat_interval_s, orch.heartbeat_retry
        last_probe = (policy.max_attempts - 1) * policy.timeout_s
        never = orch.misses_allowed * interval + last_probe
        always = (orch.misses_allowed + 1) * interval + last_probe
        assert never == pytest.approx(4.8e-3)
        assert always == pytest.approx(6.8e-3)
        # Eight alignments a quarter millisecond apart cover every
        # phase of the 2 ms grid (and of the 0.8 ms probe pair).
        for step in range(8):
            start_s = 0.01 + step * 0.25e-3
            assert self._blackout(4.5e-3, start_s).history == [], start_s
            assert self._blackout(7.0e-3, start_s).history, start_s

    def test_overrunning_rounds_never_overlap_or_burst(self):
        """A probe budget of two intervals plus patient corroboration:
        the next round starts when this one ends, one at a time, and
        no catch-up rounds follow."""
        sim = Simulator()
        interval = 2e-3
        chain, orch, _ = _setup(
            sim, heartbeat_interval_s=interval, corroborate_suspects=True,
            heartbeat_retry=RetryPolicy(timeout_s=interval, max_attempts=2,
                                        backoff_base_s=0.0, jitter_frac=0.0))
        probes = _record_rounds(orch)
        sim.schedule_callback(0.0101, lambda: chain.fail_position(1))
        sim.run(until=0.08)
        (event,) = orch.history
        assert event.recovered
        rounds = sorted({sent for _, sent, _ in probes})
        ends = [max(end for _, sent, end in probes if sent == start)
                for start in rounds]
        gaps = [b - a for a, b in zip(rounds, rounds[1:])]
        # One round at a time: a round starts no earlier than the
        # previous one (silent probe included) has ended ...
        assert all(start >= end - 1e-12
                   for start, end in zip(rounds[1:], ends))
        # ... the silent rounds really overran (2 x 2 ms of deadlines) ...
        assert max(end - start for start, end in zip(rounds, ends)) \
            == pytest.approx(2 * interval)
        # ... and no two rounds are ever closer than one interval, so
        # the ticks missed during an overrun are not replayed.
        assert min(gaps) >= interval - 1e-12
        # Healthy again after the recovery: exactly one interval apart.
        assert gaps[-5:] == pytest.approx([interval] * 5, abs=1e-12)
        for position in range(chain.n_positions):
            mine = [(sent, end) for p, sent, end in probes if p == position]
            assert mine == sorted(mine)
            assert all(nxt[0] >= cur[1] - 1e-12
                       for cur, nxt in zip(mine, mine[1:]))


def _reliable_setup(sim, reliable_links=True, **orch_kwargs):
    """Ch-3 under traffic; the orchestrator probes from its own server."""
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1,
                     deliver=EgressRecorder(sim), costs=COSTS, n_threads=2,
                     reliable_links=reliable_links)
    chain.net.add_server("ctl")
    chain.start()
    orch = Orchestrator(sim, chain, **orch_kwargs)
    orch.home = "ctl"
    orch.start()
    TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                     flows=balanced_flows(4, 2))
    return chain, orch


def _record_silences(chain):
    """Log ``(src, dst, at)`` for every silent-hop report the chain fires."""
    log = []
    chain.silence_observers.append(
        lambda src, dst: log.append((src, dst, chain.sim.now)))
    return log


def _off_grid(orch, log):
    """Start times of the rounds in ``log`` that are not on the grid."""
    ticks = {sent: sent / orch.heartbeat_interval_s for _, sent, _ in log}
    return sorted(sent for sent, k in ticks.items()
                  if k != pytest.approx(round(k), abs=1e-9))


class TestSilenceReportContract:
    """A reliable hop that hears no ACK for an RTO reports its receiver
    (PROTOCOL.md section 4): one silent round then declares it."""

    def test_crash_is_declared_one_round_after_the_report(self):
        sim = Simulator()
        chain, orch = _reliable_setup(sim)
        silences = _record_silences(chain)
        crash_at = 0.0101
        sim.schedule_callback(crash_at, lambda: chain.fail_position(2))
        sim.run(until=0.03)
        (event,) = orch.history
        assert event.positions == [2] and event.recovered
        [(src, dst, silent_at)] = silences
        assert (src, dst) == (1, 2)
        # The first frame to the corpse starts the clock; the watchdog
        # looks every half RTO.
        rto = chain._channels[(1, 2)].policy.timeout_s
        assert rto <= silent_at - crash_at <= 1.5 * rto + 20e-6
        one_way = chain.net.control_rtt(chain.route[1], "ctl") / 2
        assert one_way > 0
        assert event.detected_at == pytest.approx(
            silent_at + one_way + _budget(orch), abs=1e-9)
        assert orch.silence_reports == 1

    def test_live_replica_behind_a_cut_data_link_is_cleared(self):
        sim = Simulator()
        chain, orch = _reliable_setup(sim)
        silences = _record_silences(chain)
        probes = _record_rounds(orch)
        cut = (chain.route[1], chain.route[2])
        sim.schedule_callback(0.0101, lambda: chain.net.impair_data(
            drop_rate=1.0, duration_s=300e-6, links=(cut,)))
        sim.run(until=0.03)
        assert orch.history == []
        assert chain.route[2] == cut[1]
        [(src, dst, silent_at)] = silences
        assert (src, dst) == (1, 2)
        assert orch.silence_reports == 1
        # The report's round ran at once, off the grid, and position 2
        # answered it; the grid re-anchored there.
        woken = silent_at + chain.net.control_rtt(cut[0], "ctl") / 2
        off_grid = _off_grid(orch, probes)
        assert off_grid[0] == pytest.approx(woken, abs=1e-12)
        answered = [end for p, sent, end in probes
                    if p == 2 and sent == off_grid[0]]
        assert answered and orch._last_seen_alive[2] >= answered[0]
        later = [sent for sent in off_grid if sent > woken]
        assert later[:3] == pytest.approx(
            [woken + k * orch.heartbeat_interval_s for k in (1, 2, 3)],
            abs=1e-12)

    def test_crash_of_the_first_position_keeps_the_grid_contract(self):
        """Position 0 has no upstream hop: nothing reports it."""
        sim = Simulator()
        chain, orch = _reliable_setup(sim)
        silences = _record_silences(chain)
        sim.schedule_callback(0.0101, lambda: chain.fail_position(0))
        sim.run(until=0.04)
        (event,) = orch.history
        assert event.positions == [0] and event.recovered
        assert silences == [] and orch.silence_reports == 0
        rtt = chain.net.control_rtt("ctl", chain.route[0])
        assert event.detection_delay_s == pytest.approx(
            _contract(orch) - _answer_latency(chain, rtt), abs=1e-9)

    def test_reports_on_recovering_positions_are_ignored(self):
        sim = Simulator()
        chain, orch = _reliable_setup(sim, reliable_links=False)
        probes = _record_rounds(orch)
        orch.recovery_hooks.append(
            lambda phase, positions: phase == "initializing"
            and chain._hop_silent(0, 1))
        sim.schedule_callback(0.0101, lambda: chain.fail_position(1))
        sim.run(until=0.03)
        (event,) = orch.history
        assert event.recovered
        assert orch.silence_reports == 0
        assert _off_grid(orch, probes) == []

    def test_reports_on_lost_positions_are_ignored(self):
        sim = Simulator()
        chain, orch = _reliable_setup(sim, reliable_links=False)
        probes = _record_rounds(orch)
        sim.schedule_callback(0.0101, lambda: chain.fail_position(1))
        sim.schedule_callback(0.0101, lambda: chain.fail_position(2))
        sim.run(until=0.08)
        assert orch.lost_positions == {1, 2}
        for delay in (0.0, 1e-3):
            sim.schedule_callback(delay, lambda: chain._hop_silent(1, 2))
            sim.schedule_callback(delay, lambda: chain._hop_silent(0, 1))
        sim.run(until=0.09)
        assert orch.silence_reports == 0
        assert _off_grid(orch, probes) == []

    def test_only_the_leader_is_told(self):
        sim = Simulator()
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1,
                         deliver=EgressRecorder(sim), costs=COSTS,
                         n_threads=2, reliable_links=True)
        chain.start()
        ensemble = OrchestratorEnsemble(sim, chain, n=3)
        ensemble.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        sim.schedule_callback(0.0301, lambda: chain.fail_position(2))
        sim.run(until=0.04)
        (event,) = ensemble.history
        assert event.recovered
        leader = ensemble.leader
        assert [m.orch.silence_reports for m in ensemble.members] == [
            1 if m is leader else 0 for m in ensemble.members]

    @pytest.mark.parametrize("corroborate", [False, True])
    def test_no_false_failover_under_combined_impairment(self, corroborate):
        """Data drop 5 % and control drop 20 % on a healthy chain."""
        sim = Simulator()
        chain, orch = _reliable_setup(sim,
                                      corroborate_suspects=corroborate)
        chain.net.impair_data(drop_rate=0.05, seed=1)
        chain.net.impair(drop_rate=0.2, seed=1)
        sim.run(until=0.05)
        assert chain.channel_stats()["retransmissions"] > 0
        assert chain.net.control_drops > 0
        assert orch.history == []


class TestReconfigQueue:
    """Queued reconfigurations: request order, no idle gap, preemptible."""

    @staticmethod
    def _rescale(threads):
        return ReconfigOp(kind="rescale", position=1, n_threads=threads)

    def test_requests_run_in_order_and_start_at_the_commit_instant(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        phases = []
        orch.reconfig_hooks.append(
            lambda phase, _pos: phases.append((phase, sim.now)))
        for at, threads in ((10.00e-3, 3), (10.05e-3, 4),
                            (10.50e-3, 5), (12.00e-3, 6)):
            sim.schedule_callback(
                at, lambda t=threads: orch.request_reconfig(self._rescale(t)))
        sim.run(until=0.03)
        assert [(r.op.n_threads, r.aborted) for r in orch.reconfig_history] \
            == [(3, False), (4, False), (5, False), (6, False)]
        commits = [t for phase, t in phases if phase == "committed"]
        starts = [t for phase, t in phases if phase == "preparing"]
        assert starts[0] == 10.00e-3
        # Each queued request starts the instant its predecessor
        # commits -- the orchestrator never idles on a poll.
        assert starts[1:] == commits[:-1]
        assert not orch._reconfig_waiters and not orch._reconfig_active

    def test_recovery_preempts_the_queue_and_releases_it(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        for at, threads in ((10.00e-3, 3), (10.05e-3, 4), (10.10e-3, 5)):
            sim.schedule_callback(
                at, lambda t=threads: orch.request_reconfig(self._rescale(t)))
        # Position 2 has been silent since before the requests; it is
        # declared while the first runs and the other two wait in line.
        sim.schedule_callback(5.9e-3, lambda: chain.fail_position(2))
        # Requested during the recovery: waits for it, then runs.
        sim.schedule_callback(
            11.8e-3, lambda: orch.request_reconfig(self._rescale(6)))
        sim.run(until=0.04)
        (event,) = orch.history
        assert event.recovered and 10.10e-3 < event.detected_at < 11.8e-3
        assert [(r.op.n_threads, r.aborted) for r in orch.reconfig_history] \
            == [(3, True), (4, True), (5, True), (6, False)]
        assert not orch._reconfig_waiters and not orch._reconfig_active


class TestRegionAwareRecovery:
    def test_init_delay_tracks_region_rtt(self):
        """Fig 13: farther regions -> longer initialization."""
        delays = {}
        for region, position in (("core", 0), ("remote", 1), ("neighbor", 2)):
            sim = Simulator()
            chain, orch, _ = _setup(
                sim, regions=["core", "remote", "neighbor"])
            sim.schedule_callback(0.01, lambda p=position: chain.fail_position(p))
            sim.run(until=0.4)
            delays[region] = orch.history[0].report.initialization_s
        assert delays["core"] < delays["neighbor"] < delays["remote"]
        assert delays["core"] == pytest.approx(0.9e-3 + 0.3e-3, rel=0.01)
        assert delays["remote"] == pytest.approx(49.5e-3 + 0.3e-3, rel=0.01)

    def test_state_recovery_dominated_by_wan(self):
        sim = Simulator()
        chain, orch, _ = _setup(sim, regions=["core", "remote", "neighbor"])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        sim.schedule_callback(0.01, lambda: chain.fail_position(1))
        sim.run(until=0.4)
        report = orch.history[0].report
        # Fetching from core and neighbor: at least one neighbor RTT.
        assert report.state_recovery_s >= 5e-3

    def test_parallel_fetches_not_serialized(self):
        """§7.5: a new replica fetches state in parallel, so recovery
        time tracks the slowest fetch, not the sum."""
        sim = Simulator()
        chain, orch, _ = _setup(sim, regions=["remote", "core", "remote"])
        TrafficGenerator(sim, chain.ingress, rate_pps=1e5,
                         flows=balanced_flows(4, 2))
        sim.schedule_callback(0.01, lambda: chain.fail_position(1))
        sim.run(until=0.5)
        report = orch.history[0].report
        # Both fetches cross core<->remote (49.5 ms RTT) and cost two
        # round trips each (connect + request/response); serialized
        # they would take >= 198 ms, parallel ~100 ms.
        assert len(report.fetches) == 2
        assert report.state_recovery_s < 140e-3
