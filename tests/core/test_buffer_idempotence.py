"""Duplicate-delivery idempotence at the buffer (PROTOCOL.md §8).

A wire-level duplicate that slips past the hop channel (or arrives on
a raw link) must be a complete no-op at chain egress: the packet is
released at most once, and re-absorbing the duplicate's piggyback
content leaves every commit floor exactly where it was.
"""

from hypothesis import given, settings, strategies as st

from repro.core.buffer import Buffer
from repro.core.costs import CostModel
from repro.core.piggyback import CommitVector, PiggybackLog, PiggybackMessage
from repro.net import FlowKey, Packet
from repro.sim import Simulator

COSTS = CostModel(cycle_jitter_frac=0.0)

entry_maps = st.dictionaries(st.integers(min_value=0, max_value=7),
                             st.integers(min_value=0, max_value=100),
                             max_size=5)


def _pkt(pid):
    pkt = Packet(flow=FlowKey(1, 2, 3, 4))
    pkt.pid = pid
    return pkt


def _msg(commit_entries, dep_entries, pid):
    message = PiggybackMessage(COSTS)
    if dep_entries:
        message.add_log(PiggybackLog("m", depvec=dict(dep_entries),
                                     updates={"k": 1}, packet_id=pid))
    if commit_entries:
        message.set_commit(CommitVector("m", dict(commit_entries)))
    return message


def _buffer(sim, released):
    return Buffer(sim, deliver=released.append,
                  send_feedback=lambda p: None, costs=COSTS)


class TestDuplicateHandle:
    @settings(max_examples=60, deadline=None)
    @given(commit_entries=entry_maps, dep_entries=entry_maps)
    def test_second_handle_is_a_noop(self, commit_entries, dep_entries):
        """Same pid handled twice: one release at most, floors frozen."""
        sim = Simulator()
        released = []
        buf = _buffer(sim, released)
        pkt = _pkt(pid=1_000_000)
        buf.handle(pkt, _msg(commit_entries, dep_entries, pkt.pid))
        floor_after_first = {mbox: dict(entries)
                             for mbox, entries in buf.commit_floor.items()}
        released_after_first = list(released)
        held_after_first = len(buf.held)

        # The duplicate carries identical content (a wire-level copy).
        buf.handle(pkt, _msg(commit_entries, dep_entries, pkt.pid))

        assert buf.commit_floor == floor_after_first
        assert released == released_after_first
        assert len(buf.held) == held_after_first
        assert buf.duplicates_dropped == 1
        assert released.count(pkt) <= 1

    def test_released_packet_not_released_twice(self):
        sim = Simulator()
        released = []
        buf = _buffer(sim, released)
        pkt = _pkt(pid=42)
        buf.handle(pkt, PiggybackMessage(COSTS))
        assert released == [pkt]
        buf.handle(pkt, PiggybackMessage(COSTS))
        assert released == [pkt]
        assert buf.duplicates_dropped == 1

    def test_late_duplicate_not_released_twice(self):
        """A duplicate that trails 65,536 fresh packets is still caught."""
        sim = Simulator()
        released = []
        buf = _buffer(sim, released)
        pkt = _pkt(pid=1)
        buf.handle(pkt, PiggybackMessage(COSTS))
        for pid in range(2, 2 + 65_536):
            buf.handle(_pkt(pid=pid), PiggybackMessage(COSTS))
        buf.handle(pkt, PiggybackMessage(COSTS))
        assert released.count(pkt) == 1
        assert buf.duplicates_dropped == 1

    def test_held_packet_not_held_twice(self):
        sim = Simulator()
        released = []
        buf = _buffer(sim, released)
        pkt = _pkt(pid=43)
        message = _msg({}, {0: 5}, pkt.pid)
        buf.handle(pkt, message)
        assert len(buf.held) == 1
        buf.handle(pkt, _msg({}, {0: 5}, pkt.pid))
        assert len(buf.held) == 1
        # The eventual commit still releases it exactly once.
        buf.handle(_pkt(pid=44), _msg({0: 6}, {}, 44))
        assert released.count(pkt) == 1

    def test_duplicate_still_costs_cycles(self):
        """Dedup is not free: the packet was parsed before being binned."""
        sim = Simulator()
        buf = _buffer(sim, [])
        pkt = _pkt(pid=45)
        buf.handle(pkt, PiggybackMessage(COSTS))
        cycles = buf.handle(pkt, PiggybackMessage(COSTS))
        assert cycles == COSTS.buffer_cycles

    def test_overflow_shed_is_counted(self):
        sim = Simulator()
        released = []
        buf = Buffer(sim, deliver=released.append,
                     send_feedback=lambda p: None, costs=COSTS, max_held=2)
        for pid in range(100, 105):
            buf.handle(_pkt(pid=pid), _msg({}, {0: 5}, pid))
        assert len(buf.held) == 2
        assert buf.overflow_dropped == 3
        assert released == []
