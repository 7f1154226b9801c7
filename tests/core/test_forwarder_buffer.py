"""Unit tests for the forwarder and buffer elements."""

import pytest

from repro.chaos.auditor import ShadowOracle
from repro.core import FTCChain
from repro.core.buffer import Buffer
from repro.core.costs import CostModel
from repro.core.forwarder import Forwarder
from repro.core.piggyback import CommitVector, PiggybackLog, PiggybackMessage
from repro.middlebox import ch_rec
from repro.net import FlowKey, Packet, TrafficGenerator, balanced_flows
from repro.sim import RandomStreams, Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)


def _msg(*logs, commits=()):
    msg = PiggybackMessage(COSTS)
    for log in logs:
        msg.add_log(log)
    for commit in commits:
        msg.set_commit(commit)
    return msg


def _pkt(pid=None, kind="data"):
    pkt = Packet(flow=FlowKey(1, 2, 3, 4), kind=kind)
    if pid is not None:
        pkt.pid = pid
    return pkt


class TestForwarder:
    def test_feedback_logs_attach_to_next_packet(self):
        sim = Simulator()
        fwd = Forwarder(sim, inject=lambda p: None, costs=COSTS)
        log = PiggybackLog("m", depvec={0: 0}, updates={"k": 1})
        fwd.absorb_feedback(_msg(log))
        message = PiggybackMessage(COSTS)
        cycles = fwd.attach(message)
        assert message.logs_for("m") == [log]
        assert cycles > COSTS.forwarder_cycles
        # Pending drained: second packet gets nothing extra.
        second = PiggybackMessage(COSTS)
        fwd.attach(second)
        assert second.n_logs == 0
        fwd.stop()

    def test_commits_attach_once_per_update(self):
        sim = Simulator()
        fwd = Forwarder(sim, inject=lambda p: None, costs=COSTS)
        fwd.absorb_feedback(_msg(commits=[CommitVector("m", {0: 3})]))
        first = PiggybackMessage(COSTS)
        fwd.attach(first)
        assert first.commit_for("m").entries == {0: 3}
        second = PiggybackMessage(COSTS)
        fwd.attach(second)
        assert second.commit_for("m") is None  # not dirty anymore
        # A stale (lower) commit does not re-dirty.
        fwd.absorb_feedback(_msg(commits=[CommitVector("m", {0: 2})]))
        third = PiggybackMessage(COSTS)
        fwd.attach(third)
        assert third.commit_for("m") is None
        fwd.stop()

    def test_propagating_timer_fires_when_idle_with_pending(self):
        sim = Simulator()
        injected = []
        fwd = Forwarder(sim, inject=injected.append, costs=COSTS)
        fwd.absorb_feedback(_msg(PiggybackLog("m", depvec={0: 0})))
        sim.run(until=3 * COSTS.propagation_timeout_s)
        assert len(injected) >= 1
        assert injected[0].kind == "propagating"
        assert injected[0].attachment("ftc").n_logs == 1
        fwd.stop()

    def test_no_propagating_packet_without_pending_state(self):
        sim = Simulator()
        injected = []
        fwd = Forwarder(sim, inject=injected.append, costs=COSTS)
        sim.run(until=5 * COSTS.propagation_timeout_s)
        assert injected == []
        fwd.stop()

    def test_traffic_resets_idle_timer(self):
        sim = Simulator()
        injected = []
        fwd = Forwarder(sim, inject=injected.append, costs=COSTS)

        def traffic(sim):
            for _ in range(20):
                fwd.absorb_feedback(_msg(PiggybackLog("m", depvec={0: 0})))
                fwd.attach(PiggybackMessage(COSTS))
                yield sim.timeout(COSTS.propagation_timeout_s / 4)

        sim.process(traffic(sim))
        sim.run(until=COSTS.propagation_timeout_s * 4)
        assert injected == []
        fwd.stop()


class TestBuffer:
    def _buffer(self, sim):
        released, feedback = [], []
        buf = Buffer(sim, deliver=released.append,
                     send_feedback=feedback.append, costs=COSTS)
        return buf, released, feedback

    def test_packet_without_requirements_released_immediately(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt()
        buf.handle(pkt, _msg())
        assert released == [pkt]

    def test_packet_with_uncommitted_log_held(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt(pid=77)
        log = PiggybackLog("m", depvec={0: 5}, updates={"k": 1}, packet_id=77)
        buf.handle(pkt, _msg(log))
        assert released == []
        assert len(buf.held) == 1

    def test_later_commit_releases_held_packet(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt(pid=77)
        buf.handle(pkt, _msg(PiggybackLog("m", depvec={0: 5},
                                          updates={"k": 1}, packet_id=77)))
        # Commit covering seq 5 arrives on a later packet.
        later = _pkt(pid=78)
        buf.handle(later, _msg(commits=[CommitVector("m", {0: 6})]))
        assert pkt in released and later in released
        assert buf.held == []

    def test_insufficient_commit_keeps_holding(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt(pid=77)
        buf.handle(pkt, _msg(PiggybackLog("m", depvec={0: 5},
                                          updates={"k": 1}, packet_id=77)))
        buf.handle(_pkt(), _msg(commits=[CommitVector("m", {0: 5})]))
        assert pkt not in released

    def test_own_commit_on_same_packet_releases_immediately(self):
        """When the final tail sits at the last position, the packet's
        own commit vector arrives with it -- no hold."""
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt(pid=9)
        buf.handle(pkt, _msg(commits=[CommitVector("m", {0: 10})]))
        assert released == [pkt]

    def test_leftover_logs_feed_back_to_forwarder(self):
        sim = Simulator()
        buf, _, feedback = self._buffer(sim)
        log = PiggybackLog("m", depvec={0: 0}, updates={"k": 1}, packet_id=1)
        buf.handle(_pkt(pid=1), _msg(log))
        sim.run(until=0.001)
        assert len(feedback) == 1
        message = feedback[0].attachment("ftc")
        assert message.logs_for("m") == [log]
        buf.stop()

    def test_feedback_batches_under_load(self):
        sim = Simulator()
        buf, _, feedback = self._buffer(sim)

        def burst(sim):
            for i in range(50):
                log = PiggybackLog("m", depvec={0: i}, updates={"k": i},
                                   packet_id=i)
                buf.handle(_pkt(pid=i), _msg(log))
                yield sim.timeout(1e-8)  # far faster than min interval

        sim.process(burst(sim))
        sim.run(until=0.001)
        assert 1 <= len(feedback) < 50
        total_logs = sum(p.attachment("ftc").n_logs for p in feedback)
        assert total_logs == 50
        buf.stop()

    def test_propagating_packet_consumed_not_released(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        buf.handle(_pkt(kind="propagating"),
                   _msg(commits=[CommitVector("m", {0: 1})]))
        assert released == []
        assert buf.propagating_consumed == 1

    def test_release_strips_message(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt()
        buf.handle(pkt, _msg())
        assert released[0].attachment("ftc") is None

    def test_noop_log_imposes_no_requirement(self):
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        pkt = _pkt(pid=4)
        buf.handle(pkt, _msg(PiggybackLog("m", packet_id=4)))
        assert released == [pkt]

    def test_held_peak_statistic(self):
        sim = Simulator()
        buf, _, _ = self._buffer(sim)
        for i in range(5):
            buf.handle(_pkt(pid=i),
                       _msg(PiggybackLog("m", depvec={0: i + 100},
                                         updates={"k": 1}, packet_id=i)))
        assert buf.held_peak == 5

    def test_covered_packet_waits_behind_its_own_flow(self):
        """A packet with nothing to wait for still may not overtake a
        held packet of its flow; other flows go at once."""
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        first, second = _pkt(pid=1), _pkt(pid=2)
        other = Packet(flow=FlowKey(9, 9, 9, 9))
        buf.handle(first, _msg(PiggybackLog("m", depvec={0: 5},
                                            updates={"k": 1}, packet_id=1)))
        buf.handle(second, _msg(PiggybackLog("m", packet_id=2)))   # no-op
        buf.handle(other, _msg())
        assert released == [other]
        carrier = Packet(flow=FlowKey(8, 8, 8, 8))
        buf.handle(carrier, _msg(commits=[CommitVector("m", {0: 6})]))
        assert released == [other, carrier, first, second]
        assert buf.held == []


class TestEgressFlowOrder:
    @pytest.mark.parametrize("rate_pps, n_flows", [(5e5, 4), (1e6, 16)])
    def test_ch_rec_releases_each_flow_in_order(self, rate_pps, n_flows):
        """SimpleNAT's second packet of a flow only reads, so it carries
        no release requirement, while the first waits for the wrapped
        commit: it used to overtake the first, once per flow."""
        sim = Simulator()
        oracle = ShadowOracle(track_order=True)
        chain = FTCChain(sim, ch_rec(n_threads=2), f=1, deliver=oracle,
                         n_threads=2, seed=0)
        chain.start()
        generator = TrafficGenerator(
            sim, chain.ingress, rate_pps=rate_pps,
            flows=balanced_flows(n_flows, 2), arrivals="poisson",
            streams=RandomStreams(0))
        sim.run(until=2e-3)
        generator.stop()
        sim.run(until=7e-3)
        assert oracle.released == generator.sent > 0
        assert oracle.out_of_order == 0


class TestFailStopGauges:
    def test_gauges_read_zero_after_both_ends_fail(self):
        """A fail-stop that discards the buffer's held set and the
        forwarder's pending logs also zeroes their gauges."""
        from repro.middlebox import ch_n
        from repro.telemetry import Telemetry
        sim = Simulator()
        telemetry = Telemetry(max_trace_events=0)
        chain = FTCChain(sim, ch_n(2, n_threads=2), f=1,
                         deliver=lambda packet: None, n_threads=2, seed=0,
                         telemetry=telemetry)
        chain.start()
        TrafficGenerator(sim, chain.ingress, rate_pps=2e5,
                         flows=balanced_flows(64, 2), packet_size=256,
                         arrivals="poisson", streams=RandomStreams(0))
        sim.run(until=2e-3)
        gauges = telemetry.registry.gauges
        assert gauges["ftc/buffer/held"].value > 0
        assert gauges["ftc/forwarder/pending_logs"].value > 0
        chain.fail_position(1)
        chain.fail_position(0)
        assert len(chain.buffer.held) == len(chain.forwarder.pending_logs) == 0
        assert gauges["ftc/buffer/held"].value == 0
        assert gauges["ftc/forwarder/pending_logs"].value == 0
