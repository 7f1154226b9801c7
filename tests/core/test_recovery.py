"""Failure injection and recovery tests (§5.2 + DESIGN.md invariant 4)."""

import pytest

from repro.core import FTCChain, UnrecoverableError, recover_positions
from repro.core.costs import CostModel
from repro.core.reconfig import ReconfigOp, apply_reconfig
from repro.metrics import EgressRecorder
from repro.middlebox import MazuNAT, Monitor, ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import Simulator

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)


def build(sim, middleboxes, f=1, n_threads=2):
    egress = EgressRecorder(sim, keep_packets=True)
    chain = FTCChain(sim, middleboxes, f=f, deliver=egress,
                     costs=FAST_COSTS, n_threads=n_threads)
    chain.start()
    return chain, egress


def run_with_failure(sim, chain, fail_positions, fail_at=0.002,
                     recover=True, run_for=0.03, rate=1e6):
    gen = TrafficGenerator(sim, chain.ingress, rate_pps=rate,
                           flows=balanced_flows(8, chain.n_threads))
    report_box = []

    def chaos(sim):
        yield sim.timeout(fail_at)
        for position in fail_positions:
            chain.fail_position(position)
        if recover:
            report = yield sim.process(
                recover_positions(chain, list(fail_positions)))
            report_box.append(report)

    sim.process(chaos(sim))
    sim.run(until=run_for - 0.005)
    gen.stop()
    sim.run(until=run_for)
    return report_box[0] if report_box else None


def group_stores(chain, mbox_name):
    index = chain.mbox_index(mbox_name)
    return [chain.store_of(mbox_name, pos)
            for pos in chain.group_positions(index)]


class TestSingleFailure:
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_recovery_restores_full_operation(self, position):
        sim = Simulator()
        chain, egress = build(sim, ch_n(3, n_threads=2))
        released_before = []

        def watch(sim):
            yield sim.timeout(0.0019)
            released_before.append(chain.total_released())

        sim.process(watch(sim))
        report = run_with_failure(sim, chain, [position])
        assert report is not None
        # Traffic kept flowing after recovery.
        assert chain.total_released() > released_before[0]
        # All group stores converge again.
        for mbox in chain.middleboxes:
            stores = group_stores(chain, mbox.name)
            assert all(s == stores[0] for s in stores)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_no_released_packet_loses_state(self, position):
        """Invariant: every released packet's updates survive failure.

        Monitor increments once per packet, so each group store's total
        count must be >= the number of released packets at all times,
        including across the failure.
        """
        sim = Simulator()
        chain, egress = build(sim, ch_n(3, n_threads=2))
        run_with_failure(sim, chain, [position])
        released = chain.total_released()
        assert released > 0
        for mbox in chain.middleboxes:
            for store in group_stores(chain, mbox.name):
                assert mbox.total_count(store) >= released

    def test_head_recovers_from_successor(self):
        """§5.2: a failed head's state comes from its immediate successor."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        report = run_with_failure(sim, chain, [1])
        sources = dict((mbox, pos) for mbox, pos, _size in report.fetches)
        assert sources["monitor2"] == 2   # successor in group {1,2}
        assert sources["monitor1"] == 0   # predecessor in group {0,1}

    def test_report_breakdown_populated(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        report = run_with_failure(sim, chain, [1])
        assert report.initialization_s > 0
        assert report.state_recovery_s > 0
        assert report.rerouting_s > 0
        assert report.total_s == pytest.approx(
            report.initialization_s + report.state_recovery_s +
            report.rerouting_s)
        assert report.bytes_transferred > 0

    def test_route_points_at_new_server(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        old_server = chain.route[1]
        run_with_failure(sim, chain, [1])
        assert chain.route[1] != old_server
        assert not chain.server_at(1).failed

    def test_without_recovery_chain_stalls(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        run_with_failure(sim, chain, [1], recover=False)
        # Packets after the failure never traverse the chain.
        assert chain.net.dropped_to_failed > 0
        stalled_at = chain.total_released()
        sim.run(until=0.04)
        assert chain.total_released() == stalled_at

    def test_nat_flow_mappings_survive_failure(self):
        """Connection persistence across failover: mappings allocated
        before the failure still translate afterwards (no re-pick)."""
        sim = Simulator()
        chain, egress = build(sim, [MazuNAT(name="nat"),
                                    Monitor(name="mon", n_threads=2)])
        run_with_failure(sim, chain, [0])
        # One external port per flow across the whole run: a flow never
        # changes its translation, even across the head failure.
        ports_by_src = {}
        for packet in egress.packets:
            ports_by_src.setdefault(packet.flow.dst_ip, set())
        by_flow = {}
        for packet in egress.packets:
            by_flow.setdefault(packet.flow.src_port, 0)
        # All packets of one original flow map to exactly one port:
        # count distinct ports <= number of flows.
        assert len(by_flow) <= 8


class TestReplacementSizing:
    def test_recovery_keeps_a_rescaled_positions_thread_count(self):
        """The replacement is sized like the instance it replaces: a
        position rescaled to 4 threads must not recover with the
        chain's default 2."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=2e5,
                               flows=balanced_flows(8, 2))
        reports = []
        released = []

        def drive(sim):
            yield sim.timeout(0.005)
            reports.append((yield from apply_reconfig(
                chain, ReconfigOp(kind="rescale", position=1, n_threads=4))))
            assert len(chain.server_at(1).nic.queues) == 4
            chain.fail_position(1)
            reports.append((yield sim.process(
                recover_positions(chain, [1]))))
            released.append(chain.total_released())

        sim.process(drive(sim))
        sim.run(until=0.025)
        gen.stop()
        sim.run(until=0.03)
        assert len(reports) == 2 and reports[0].committed
        server = chain.server_at(1)
        assert not server.failed
        assert len(server.nic.queues) == server.n_cores == 4
        assert chain.middleboxes[1].n_threads == 4
        assert chain.n_threads == 2
        assert chain.total_released() > released[0]  # traffic resumed


class TestExtensionAndWrapFailures:
    def test_extension_replica_failure(self):
        """A pure replica (no middlebox) can fail and recover."""
        sim = Simulator()
        chain, _ = build(sim, [Monitor(name="m", n_threads=2)], f=2)
        report = run_with_failure(sim, chain, [2])
        assert report is not None
        stores = group_stores(chain, "m")
        assert all(s == stores[0] for s in stores)

    def test_last_position_failure_loses_buffer_but_recovers(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        run_with_failure(sim, chain, [2])
        # Held packets at failure time are lost, never released twice.
        assert chain.total_released() > 0
        stores = group_stores(chain, "monitor3")
        assert all(s == stores[0] for s in stores)


class TestMultipleFailures:
    def test_two_failures_with_f_two(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(4, n_threads=2), f=2)
        report = run_with_failure(sim, chain, [1, 2], run_for=0.04)
        assert report is not None
        assert chain.total_released() > 0
        for mbox in chain.middleboxes:
            stores = group_stores(chain, mbox.name)
            assert all(s == stores[0] for s in stores)

    def test_more_than_f_failures_unrecoverable(self):
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2), f=1)
        TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                         flows=balanced_flows(4, 2), count=500)
        errors = []

        def chaos(sim):
            yield sim.timeout(0.002)
            chain.fail_position(0)
            chain.fail_position(1)
            try:
                yield sim.process(recover_positions(chain, [0, 1]))
            except UnrecoverableError as exc:
                errors.append(exc)

        sim.process(chaos(sim))
        sim.run(until=0.02)
        assert errors  # group {0,1} of monitor1 fully gone

    def test_sequential_failures_distinct_positions(self):
        """Fail, recover, then fail a different position."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                               flows=balanced_flows(8, 2))

        def chaos(sim):
            yield sim.timeout(0.002)
            chain.fail_position(1)
            yield sim.process(recover_positions(chain, [1]))
            yield sim.timeout(0.005)
            chain.fail_position(2)
            yield sim.process(recover_positions(chain, [2]))

        sim.process(chaos(sim))
        sim.run(until=0.025)
        gen.stop()
        sim.run(until=0.03)
        released = chain.total_released()
        assert released > 0
        for mbox in chain.middleboxes:
            stores = group_stores(chain, mbox.name)
            assert all(s == stores[0] for s in stores)
            assert mbox.total_count(stores[0]) >= released


def all_states(chain):
    return [state for replica in chain.replicas
            for state in replica.states.values()]


class TestExceptionSafety:
    """The hardened §5.2 path: aborts and mid-flight faults leave the
    chain exactly as it was (sources thawed, spawned replicas released)."""

    FAST_RETRY = None  # set in setup_method (import kept local)

    def setup_method(self, _method):
        from repro.net import RetryPolicy
        self.FAST_RETRY = RetryPolicy(timeout_s=1e-3, max_attempts=2,
                                      backoff_base_s=0.1e-3, jitter_frac=0.0)

    def _fail_and_attempt(self, sim, chain, hooks):
        """Fail p1, run one recovery attempt with ``hooks``; return the
        exception box."""
        from repro.core import RecoveryError
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                               flows=balanced_flows(8, 2))
        caught = []

        def chaos(sim):
            yield sim.timeout(0.002)
            chain.fail_position(1)
            try:
                yield sim.process(recover_positions(
                    chain, [1], retry_policy=self.FAST_RETRY, hooks=hooks))
            except RecoveryError as exc:
                caught.append(exc)

        sim.process(chaos(sim))
        sim.run(until=0.015)
        gen.stop()
        return caught

    def test_source_death_mid_fetch_thaws_and_releases(self):
        """A fetch source dying mid-transfer surfaces as RecoveryError;
        frozen sources are thawed and spawned instances released."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(4, n_threads=2), f=2)
        route_before = list(chain.route)

        def hooks(phase, positions):
            # Kill the monitor2 fetch source the instant fetching starts.
            if phase == "fetching" and not chain.server_at(2).failed:
                chain.fail_position(2)

        caught = self._fail_and_attempt(sim, chain, hooks)
        assert caught, "source death must surface as RecoveryError"
        assert all(not state.frozen for state in all_states(chain))
        # The chain itself is untouched: route unchanged, and every
        # server outside it (the half-spawned replacements) released.
        assert chain.route == route_before
        for name, server in chain.net.servers.items():
            if name not in chain.route:
                assert server.failed

    def test_reentry_with_union_succeeds_after_source_death(self):
        """§5.2 re-entry: after the source died mid-fetch, recovering
        the union of failed positions completes and converges."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(4, n_threads=2), f=2)
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                               flows=balanced_flows(8, 2))
        reports = []

        def hooks(phase, positions):
            if phase == "fetching" and positions == [1] \
                    and not chain.server_at(2).failed:
                chain.fail_position(2)

        def chaos(sim):
            from repro.core import RecoveryError
            yield sim.timeout(0.002)
            chain.fail_position(1)
            try:
                yield sim.process(recover_positions(
                    chain, [1], retry_policy=self.FAST_RETRY, hooks=hooks))
            except RecoveryError:
                report = yield sim.process(recover_positions(
                    chain, [1, 2], retry_policy=self.FAST_RETRY, hooks=hooks))
                reports.append(report)

        sim.process(chaos(sim))
        sim.run(until=0.025)
        gen.stop()
        sim.run(until=0.03)
        assert reports, "union re-entry must complete"
        assert reports[0].positions == [1, 2]
        released = chain.total_released()
        assert released > 0
        for mbox in chain.middleboxes:
            stores = group_stores(chain, mbox.name)
            assert all(s == stores[0] for s in stores)
            assert mbox.total_count(stores[0]) >= released

    def test_unrecoverable_raises_before_any_freeze(self):
        """Planning-first: an unrecoverable group is detected before a
        single source is frozen."""
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2), f=1)
        errors = []

        def chaos(sim):
            yield sim.timeout(0.002)
            chain.fail_position(0)
            chain.fail_position(1)
            try:
                yield sim.process(recover_positions(chain, [0, 1]))
            except UnrecoverableError as exc:
                errors.append(exc)

        sim.process(chaos(sim))
        sim.run(until=0.02)
        assert errors
        assert all(not state.frozen for state in all_states(chain))

    def test_interrupted_recovery_leaves_chain_intact_and_retryable(self):
        """Aborting mid-fetch (the union re-entry mechanism) rolls back
        cleanly; an immediate retry succeeds."""
        from repro.sim import Interrupt
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        gen = TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                               flows=balanced_flows(8, 2))
        route_before = list(chain.route)
        outcomes = []

        def chaos(sim):
            yield sim.timeout(0.002)
            chain.fail_position(1)
            attempt = sim.process(recover_positions(chain, [1]))
            sim.schedule_callback(
                0.3e-3, lambda: attempt.interrupt("chaos") if attempt.is_alive
                else None)
            try:
                yield attempt
            except Interrupt:
                outcomes.append("interrupted")
                assert chain.route == route_before
                assert all(not s.frozen for s in all_states(chain))
                report = yield sim.process(recover_positions(chain, [1]))
                outcomes.append(report)

        sim.process(chaos(sim))
        sim.run(until=0.025)
        gen.stop()
        sim.run(until=0.03)
        assert outcomes and outcomes[0] == "interrupted"
        assert len(outcomes) == 2
        assert not chain.server_at(1).failed
        for mbox in chain.middleboxes:
            stores = group_stores(chain, mbox.name)
            assert all(s == stores[0] for s in stores)

    def test_hook_phases_fire_in_order(self):
        from repro.core import RECOVERY_PHASES
        sim = Simulator()
        chain, _ = build(sim, ch_n(3, n_threads=2))
        phases = []

        def chaos(sim):
            yield sim.timeout(0.002)
            chain.fail_position(1)
            yield sim.process(recover_positions(
                chain, [1], hooks=lambda ph, _pos: phases.append(ph)))

        sim.process(chaos(sim))
        sim.run(until=0.02)
        assert phases == list(RECOVERY_PHASES)
