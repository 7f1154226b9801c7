"""Unit tests for the forwarder and buffer elements."""

import pytest
from hypothesis import given, settings, strategies as st

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
        assert first.commits["m"].entries == {0: 3}
        second = PiggybackMessage(COSTS)
        fwd.attach(second)
        assert "m" not in second.commits  # not dirty anymore
        # A stale (lower) commit does not re-dirty.
        fwd.absorb_feedback(_msg(commits=[CommitVector("m", {0: 2})]))
        third = PiggybackMessage(COSTS)
        fwd.attach(third)
        assert "m" not in third.commits
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
        assert not buf.held

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
        assert not buf.held

    def test_covered_packet_overtakes_another_flows_held_packet(self):
        """Egress order is per flow: a commit covering flow B's held
        packet releases it while flow A's earlier one is still held,
        and A's later covered packet keeps waiting behind A's head."""
        sim = Simulator()
        buf, released, _ = self._buffer(sim)
        a1, a2 = _pkt(pid=1), _pkt(pid=3)
        b1 = Packet(flow=FlowKey(9, 9, 9, 9))
        b1.pid = 2
        buf.handle(a1, _msg(PiggybackLog("m", depvec={0: 5},
                                         updates={"k": 1}, packet_id=1)))
        buf.handle(b1, _msg(PiggybackLog("m", depvec={1: 3},
                                         updates={"k": 1}, packet_id=2)))
        buf.handle(a2, _msg(PiggybackLog("m", packet_id=3)))   # no-op
        buf.handle(_pkt(kind="propagating"),
                   _msg(commits=[CommitVector("m", {1: 4})]))
        assert released == [b1]
        assert len(buf.held) == 2
        # Flow C waits for an earlier entry than A but arrived later:
        # heads freed together still leave in arrival order.
        c1 = Packet(flow=FlowKey(7, 7, 7, 7))
        c1.pid = 4
        buf.handle(c1, _msg(PiggybackLog("m", depvec={0: 4},
                                         updates={"k": 1}, packet_id=4)))
        buf.handle(_pkt(kind="propagating"),
                   _msg(commits=[CommitVector("m", {0: 6})]))
        assert released == [b1, a1, a2, c1]
        assert not buf.held


#: ``mbox -> partition -> seq`` entries: release requirements or commits.
_entries = st.dictionaries(
    st.sampled_from(["m", "n"]),
    st.dictionaries(st.integers(0, 2), st.integers(0, 5), min_size=1,
                    max_size=3),
    max_size=2)
#: One arrival: a data packet of flow 0-2 (its requirements, and the
#: commits it carries), or a propagating packet (commits only).
_arrivals = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(0, 2)), _entries, _entries),
    max_size=30)


def _buffer_floors_cover(requirements, buf):
    """The buffer's own rule: an mbox without a floor covers nothing."""
    return all(mbox in buf.commit_floor and all(
        buf.commit_floor[mbox].get(partition, 0) >= seq + 1
        for partition, seq in depvec.items())
        for mbox, depvec in requirements.items())


class TestEgressFlowOrder:
    @settings(max_examples=300, deadline=None)
    @given(arrivals=_arrivals)
    def test_release_keeps_flow_order_and_frees_every_covered_head(
            self, arrivals):
        """Per-flow order is kept, only covered packets are released,
        and when ``handle`` returns no flow's head is covered yet held."""
        released, sent, requirements_of = [], {}, {}

        def deliver(packet):
            assert _buffer_floors_cover(requirements_of[packet.pid], buf)
            released.append(packet)

        buf = Buffer(Simulator(), deliver=deliver,
                     send_feedback=lambda packet: None, costs=COSTS)
        for pid, (flow, requirements, commits) in enumerate(arrivals, 1):
            kind = "data" if flow is not None else "propagating"
            packet = Packet(flow=FlowKey(flow or 0, 2, 3, 4), kind=kind)
            packet.pid = pid
            if kind == "data":
                sent.setdefault(flow, []).append(packet)
                requirements_of[pid] = requirements
            logs = [PiggybackLog(mbox, depvec=dict(depvec),
                                 updates={"k": 1}, packet_id=pid)
                    for mbox, depvec in requirements.items()]
            buf.handle(packet, _msg(*logs, commits=[
                CommitVector(mbox, dict(entries))
                for mbox, entries in commits.items()]))
            for packets in sent.values():
                waiting = [p for p in packets if p not in released]
                if waiting:
                    assert not _buffer_floors_cover(
                        requirements_of[waiting[0].pid], buf)
        for flow, packets in sent.items():
            out = [p for p in released if p in packets]
            assert out == packets[:len(out)]
        assert len(buf.held) == sum(map(len, sent.values())) - len(released)
        # One commit covering every entry drains the buffer in order.
        buf.handle(Packet(flow=FlowKey(7, 7, 7, 7), kind="propagating"),
                   _msg(commits=[CommitVector(mbox, {p: 6 for p in range(3)})
                                 for mbox in ("m", "n")]))
        assert not buf.held
        for flow, packets in sent.items():
            assert [p for p in released if p in packets] == packets

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
