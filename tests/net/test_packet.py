"""Tests for packets, flows, and addressing helpers."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.buffer import _DEDUP_HORIZON_PAGES
from repro.net import FlowKey, Packet, format_ip, ip
from repro.net.packet import PidBitmap

#: Ids per bitmap page, and the ids the buffer's dedup pages span.
PAGE = 1 << 15
HORIZON = _DEDUP_HORIZON_PAGES * PAGE


class TestAddressing:
    def test_ip_parses_dotted_quad(self):
        assert ip("10.0.0.1") == (10 << 24) | 1
        assert ip("255.255.255.255") == 0xFFFFFFFF
        assert ip("0.0.0.0") == 0

    def test_ip_rejects_malformed(self):
        for bad in ("10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip(bad)

    def test_format_ip_round_trip(self):
        for dotted in ("10.0.0.1", "192.168.17.254", "0.0.0.0"):
            assert format_ip(ip(dotted)) == dotted

    def test_format_ip_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(-1)
        with pytest.raises(ValueError):
            format_ip(1 << 32)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_format_parse_inverse(self, value):
        assert ip(format_ip(value)) == value


class TestFlowKey:
    def _flow(self):
        return FlowKey(ip("10.0.0.1"), ip("10.0.0.2"), 1234, 80)

    def test_reversed_swaps_endpoints(self):
        flow = self._flow()
        rev = flow.reversed()
        assert rev.src_ip == flow.dst_ip
        assert rev.dst_port == flow.src_port
        assert rev.reversed() == flow

    def test_rss_hash_symmetric(self):
        flow = self._flow()
        assert flow.rss_hash() == flow.reversed().rss_hash()

    def test_rss_hash_stable_and_nonnegative(self):
        flow = self._flow()
        assert flow.rss_hash() == flow.rss_hash()
        assert flow.rss_hash() >= 0

    def test_flows_hashable_and_comparable(self):
        flow = self._flow()
        same = FlowKey(ip("10.0.0.1"), ip("10.0.0.2"), 1234, 80)
        assert flow == same
        assert len({flow, same}) == 1

    def test_str_is_readable(self):
        assert "10.0.0.1:1234" in str(self._flow())


class _Blob:
    def __init__(self, size):
        self._size = size

    def byte_size(self):
        return self._size


class TestPacket:
    def test_packet_ids_unique(self):
        flow = FlowKey(1, 2, 3, 4)
        first, second = Packet(flow=flow), Packet(flow=flow)
        assert first.pid != second.pid

    def test_wire_size_includes_attachments(self):
        pkt = Packet(flow=FlowKey(1, 2, 3, 4), size=256)
        assert pkt.wire_size == 256
        pkt.attach("piggyback", _Blob(64))
        assert pkt.wire_size == 320

    def test_detach_removes_and_returns(self):
        pkt = Packet(flow=FlowKey(1, 2, 3, 4))
        blob = _Blob(10)
        pkt.attach("x", blob)
        assert pkt.detach("x") is blob
        assert pkt.detach("x") is None
        assert pkt.wire_size == pkt.size

    def test_attachment_lookup(self):
        pkt = Packet(flow=FlowKey(1, 2, 3, 4))
        assert pkt.attachment("missing") is None
        pkt.attach("k", _Blob(1))
        assert pkt.attachment("k") is not None

    def test_kind_flags(self):
        data = Packet(flow=FlowKey(1, 2, 3, 4))
        prop = Packet(flow=FlowKey(1, 2, 3, 4), kind="propagating")
        assert data.is_data and not prop.is_data

    def test_clone_headers_copies_flow_not_attachments(self):
        pkt = Packet(flow=FlowKey(1, 2, 3, 4), size=100)
        pkt.attach("x", _Blob(5))
        clone = pkt.clone_headers()
        assert clone.flow == pkt.flow
        assert clone.size == pkt.size
        assert clone.attachments == {}
        assert clone.pid != pkt.pid


#: Arbitrary ints, ids on either side of a page boundary, and large ids
#: like the buffer tests' 1_000_000.
pids = st.one_of(
    st.integers(),
    st.builds(lambda page, offset: page * PAGE + offset,
              st.integers(-3, 70), st.integers(-3, 3)),
    st.builds(lambda base, offset: base + offset,
              st.sampled_from([1_000_000, 2**31, 2**63, 10**30]),
              st.integers(-40, 40)))


class TestPidBitmap:
    """The bitmap against a plain ``set`` model."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(pids, max_size=80))
    # Ids a power of two into a page: any two share a bit under a
    # wrong index mask or shift.
    @example(ops=[page * PAGE + offset for page in (-1, 0, 1)
                  for offset in [0] + [1 << bit for bit in range(15)]])
    def test_matches_a_set(self, ops):
        bitmap, model = PidBitmap(), set()
        for pid in ops + ops[::-1]:
            assert bitmap.add(pid) == (pid in model)
            model.add(pid)
        # add() reports membership; each probe is distinct, so storing
        # it cannot change the answer for another.
        for probe in {p + d for p in ops for d in (-1, 0, 1)}:
            assert bitmap.add(probe) == (probe in model)

    @settings(max_examples=200, deadline=None)
    @given(start=st.integers(0, 2**40),
           steps=st.lists(st.tuples(st.integers(0, 8 * PAGE),
                                    st.integers(0, HORIZON + 2 * PAGE)),
                          max_size=120))
    def test_buffer_horizon(self, start, steps):
        """As the buffer configures it: a model that forgets whole pages
        64 behind the newest id's page.  Every id at most 2**21 - 2**15
        behind the newest is caught; the pages never exceed 256 KiB."""
        bitmap = PidBitmap(_DEDUP_HORIZON_PAGES)
        model, added, newest = set(), set(), None
        cur = start
        for step, lag in steps:
            cur += step
            for pid in (cur, cur - lag, cur - lag):
                expired = (newest is not None and pid // PAGE
                           <= newest // PAGE - _DEDUP_HORIZON_PAGES)
                assert bitmap.add(pid) == (pid in model)
                added.add(pid)
                if not expired:
                    model.add(pid)
                newest = pid if newest is None else max(newest, pid)
                floor = newest // PAGE - _DEDUP_HORIZON_PAGES
                model = {p for p in model if p // PAGE > floor}
                assert len(bitmap._pages) <= _DEDUP_HORIZON_PAGES
        for pid in added:
            present = bitmap.add(pid)
            assert present == (pid in model)
            if newest - pid <= HORIZON - PAGE:
                assert present

    def test_horizon_edges(self):
        """Worst alignment: newest at a page start."""
        newest = 1000 * PAGE
        for gap, caught in ((HORIZON - PAGE, True), (HORIZON, False)):
            bitmap = PidBitmap(_DEDUP_HORIZON_PAGES)
            bitmap.add(newest - gap)
            bitmap.add(newest)
            assert bitmap.add(newest - gap) is caught
