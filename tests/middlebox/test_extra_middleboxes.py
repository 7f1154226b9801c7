"""Tests for the stateful firewall, policer, and IDS middleboxes."""

import pytest

from repro.middlebox import (
    DROP,
    PASS,
    PortCountIDS,
    StatefulFirewall,
    TokenBucketPolicer,
)
from repro.net import FlowKey, Packet, ip
from repro.stm import StateStore, TransactionContext


def _ctx(store=None, now=0.0, thread_id=0):
    return TransactionContext(store or StateStore(), now=now,
                              thread_id=thread_id)


def _pkt(src="10.0.0.5", dst="8.8.8.8", sport=5555, dport=80):
    return Packet(flow=FlowKey(ip(src), ip(dst), sport, dport))


def _apply(mbox, pkt, store, now=0.0):
    ctx = _ctx(store, now=now)
    verdict = mbox.process(pkt, ctx)
    store.apply_many(ctx.writes)
    return verdict


class TestStatefulFirewall:
    def test_outbound_establishes_connection(self):
        fw = StatefulFirewall()
        store = StateStore()
        assert _apply(fw, _pkt(), store) is PASS
        assert len(store) == 1

    def test_return_traffic_admitted(self):
        fw = StatefulFirewall()
        store = StateStore()
        outbound = _pkt()
        _apply(fw, outbound, store)
        reply = Packet(flow=outbound.flow.reversed())
        assert _apply(fw, reply, store) is PASS

    def test_unsolicited_inbound_dropped(self):
        fw = StatefulFirewall()
        inbound = Packet(flow=FlowKey(ip("8.8.8.8"), ip("10.0.0.5"), 80, 5555))
        assert _apply(fw, inbound, StateStore()) is DROP

    def test_idle_timeout_evicts(self):
        fw = StatefulFirewall(idle_timeout_s=1.0)
        store = StateStore()
        outbound = _pkt()
        _apply(fw, outbound, store, now=0.0)
        reply = Packet(flow=outbound.flow.reversed())
        # Way past the idle timeout: dropped AND entry evicted.
        assert _apply(fw, reply, store, now=5.0) is DROP
        assert len(store) == 0

    def test_activity_refreshes_timeout(self):
        fw = StatefulFirewall(idle_timeout_s=1.0)
        store = StateStore()
        outbound = _pkt()
        _apply(fw, outbound, store, now=0.0)
        reply = Packet(flow=outbound.flow.reversed())
        assert _apply(fw, reply, store, now=0.9) is PASS
        assert _apply(fw, Packet(flow=outbound.flow.reversed()), store,
                      now=1.8) is PASS  # refreshed at 0.9

    def test_packet_counter_increments(self):
        fw = StatefulFirewall()
        store = StateStore()
        pkt = _pkt()
        for _ in range(3):
            _apply(fw, Packet(flow=pkt.flow), store)
        assert store.get(("conn", pkt.flow))["packets"] == 3


class TestTokenBucketPolicer:
    def test_burst_then_drop(self):
        policer = TokenBucketPolicer(rate_pps=10, burst=3)
        store = StateStore()
        pkt = _pkt()
        verdicts = [_apply(policer, Packet(flow=pkt.flow), store, now=0.0)
                    for _ in range(5)]
        assert verdicts[:3] == [PASS, PASS, PASS]
        assert verdicts[3] is DROP and verdicts[4] is DROP

    def test_refill_over_time(self):
        policer = TokenBucketPolicer(rate_pps=10, burst=1)
        store = StateStore()
        pkt = _pkt()
        assert _apply(policer, Packet(flow=pkt.flow), store, now=0.0) is PASS
        assert _apply(policer, Packet(flow=pkt.flow), store, now=0.01) is DROP
        # 0.2 s at 10 pps refills 2 tokens (capped at burst=1).
        assert _apply(policer, Packet(flow=pkt.flow), store, now=0.2) is PASS

    def test_per_flow_isolation(self):
        policer = TokenBucketPolicer(rate_pps=10, burst=1)
        store = StateStore()
        assert _apply(policer, _pkt(sport=1), store) is PASS
        assert _apply(policer, _pkt(sport=1), store) is DROP
        assert _apply(policer, _pkt(sport=2), store) is PASS  # own bucket

    def test_aggregate_mode_shares_bucket(self):
        policer = TokenBucketPolicer(rate_pps=10, burst=1, per_flow=False)
        store = StateStore()
        assert _apply(policer, _pkt(sport=1), store) is PASS
        assert _apply(policer, _pkt(sport=2), store) is DROP

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucketPolicer(rate_pps=0)
        with pytest.raises(ValueError):
            TokenBucketPolicer(burst=0)


class TestPortCountIDS:
    def test_counts_watched_ports_only(self):
        ids = PortCountIDS(watched_ports=(22,))
        store = StateStore()
        _apply(ids, _pkt(dport=22), store)
        _apply(ids, _pkt(dport=80), store)
        assert store.get(("port-count", 22)) == 1
        assert ("port-count", 80) not in store

    def test_alert_raised_at_threshold(self):
        ids = PortCountIDS(alert_threshold=3, watched_ports=(22,))
        store = StateStore()
        for _ in range(3):
            _apply(ids, _pkt(dport=22), store)
        assert store.get(("alert", 22)) is True

    def test_drop_on_alert(self):
        ids = PortCountIDS(alert_threshold=2, drop_on_alert=True,
                           watched_ports=(23,))
        store = StateStore()
        assert _apply(ids, _pkt(dport=23), store) is PASS
        assert _apply(ids, _pkt(dport=23), store) is DROP  # threshold hit
        assert _apply(ids, _pkt(dport=23), store) is DROP

    def test_shared_counter_across_threads(self):
        ids = PortCountIDS(watched_ports=(22,))
        store = StateStore()
        for thread in range(4):
            ctx = _ctx(store, thread_id=thread)
            ids.process(_pkt(dport=22, sport=thread), ctx)
            store.apply_many(ctx.writes)
        assert store.get(("port-count", 22)) == 4
