"""Tests for piggyback logs, commit vectors, and messages."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core.costs import DEFAULT_COSTS
from repro.core.piggyback import (
    CommitVector,
    PiggybackLog,
    PiggybackMessage,
    value_bytes,
)
from repro.net.packet import FlowKey, Packet


class TestValueBytes:
    def test_primitives(self):
        assert value_bytes(None) == 1
        assert value_bytes(True) == 1
        assert value_bytes(7) == 8
        assert value_bytes(3.14) == 8
        assert value_bytes(b"abcd") == 4
        assert value_bytes("hello") == 5

    def test_containers(self):
        assert value_bytes((1, 2)) == 16
        assert value_bytes([b"ab", b"c"]) == 3

    def test_nat_record_is_paper_sized(self):
        """§7.2 sizes a NAT record at ~32 B; our estimate should agree."""
        record = (3405803776, 134744072, 10000, 80)  # ext ip, dst ip, ports
        assert 24 <= value_bytes(record) <= 40


class TestPiggybackLog:
    def test_noop_detection(self):
        assert PiggybackLog("m").is_noop
        assert not PiggybackLog("m", depvec={0: 1}).is_noop
        assert not PiggybackLog("m", updates={"k": 1}).is_noop

    def test_byte_size_scales_with_updates(self):
        small = PiggybackLog("m", depvec={0: 1}, updates={"k": b"x" * 8})
        large = PiggybackLog("m", depvec={0: 1}, updates={"k": b"x" * 64})
        assert large.byte_size() - small.byte_size() == 56

    def test_byte_size_includes_depvec_entries(self):
        one = PiggybackLog("m", depvec={0: 1})
        two = PiggybackLog("m", depvec={0: 1, 1: 2})
        assert two.byte_size() - one.byte_size() == DEFAULT_COSTS.depvec_entry_bytes

    def test_log_ids_unique(self):
        assert PiggybackLog("m").log_id != PiggybackLog("m").log_id

    def test_noop_is_fixed_at_construction(self):
        """Frozen at construction (PROTOCOL.md §13.4): ``is_noop`` is a
        plain field, true and false for the same cases as ever."""
        assert PiggybackLog("m", packet_id=9).is_noop is True
        assert PiggybackLog("m", depvec={}, updates={}).is_noop is True
        assert PiggybackLog("m", depvec={3: 0}).is_noop is False
        assert PiggybackLog("m", depvec={3: 0},
                            updates={"k": 1}).is_noop is False

    def test_equality_is_by_content_and_id(self):
        log = PiggybackLog("m", depvec={0: 1}, updates={"k": 1}, packet_id=5)
        twin = PiggybackLog("m", depvec={0: 1}, updates={"k": 1},
                            packet_id=5, log_id=log.log_id)
        assert log == twin
        log.byte_size()  # the cached size is not part of the value
        assert log == twin
        assert log != PiggybackLog("m", depvec={0: 1}, updates={"k": 1},
                                   packet_id=5)  # fresh log_id
        assert log != PiggybackLog("m", depvec={0: 2}, updates={"k": 1},
                                   packet_id=5, log_id=log.log_id)
        assert log != "not a log"
        with pytest.raises(TypeError):
            hash(log)

    def test_repr_names_mbox_vector_and_update_count(self):
        log = PiggybackLog("nat", depvec={2: 7}, updates={"a": 1, "b": 2})
        assert repr(log) == "<PBLog nat vec={2: 7} updates=2>"

    def test_unknown_attribute_is_rejected(self):
        log = PiggybackLog("m")
        with pytest.raises(AttributeError):
            log.held_since = 1.0
        assert not hasattr(log, "__dict__")


class TestCommitVector:
    def test_covers_requires_post_increment(self):
        commit = CommitVector("m", {0: 3})
        assert commit.covers({0: 2})   # applied: MAX advanced past 2
        assert not commit.covers({0: 3})
        assert commit.covers({})       # no dependencies

    def test_covers_all_entries(self):
        commit = CommitVector("m", {0: 3, 1: 1})
        assert commit.covers({0: 2, 1: 0})
        assert not commit.covers({0: 2, 1: 1})

    def test_missing_partition_not_covered(self):
        assert not CommitVector("m", {}).covers({5: 0})

    def test_merge_takes_elementwise_max(self):
        target = {0: 5, 1: 2}
        CommitVector("m", {0: 3, 1: 4, 2: 1}).merge_into(target)
        assert target == {0: 5, 1: 4, 2: 1}

    def test_byte_size(self):
        empty = CommitVector("m", {})
        assert (CommitVector("m", {0: 1}).byte_size() - empty.byte_size()
                == DEFAULT_COSTS.depvec_entry_bytes)


class TestPiggybackMessage:
    def test_add_and_take_logs(self):
        msg = PiggybackMessage()
        log_a = PiggybackLog("a", depvec={0: 0})
        log_b = PiggybackLog("b", depvec={0: 0})
        msg.add_logs([log_a, log_b])
        assert msg.n_logs == 2
        assert msg.take_logs("a") == [log_a]
        assert msg.n_logs == 1
        assert msg.take_logs("a") == []

    def test_logs_for_preserves_order(self):
        msg = PiggybackMessage()
        logs = [PiggybackLog("m", depvec={0: i}) for i in range(3)]
        msg.add_logs(logs)
        assert msg.logs_for("m") == logs

    def test_commit_replacement(self):
        msg = PiggybackMessage()
        msg.set_commit(CommitVector("m", {0: 1}))
        msg.set_commit(CommitVector("m", {0: 2}))
        assert msg.commits["m"].entries == {0: 2}
        assert "other" not in msg.commits

    def test_byte_size_accumulates(self):
        msg = PiggybackMessage()
        base = msg.byte_size()
        log = PiggybackLog("m", depvec={0: 1}, updates={"k": b"1234"})
        msg.add_log(log)
        assert msg.byte_size() == base + log.byte_size()

    def test_state_bytes_counts_values_only(self):
        msg = PiggybackMessage()
        msg.add_log(PiggybackLog("m", depvec={0: 1}, updates={"k": b"12345678"}))
        assert msg.state_bytes() == 8


# -- cached sizes vs a from-scratch walk (PROTOCOL.md §13.4) -----------------

def _walk_log_bytes(log, costs):
    """The uncached reference: what ``PiggybackLog.byte_size`` walked."""
    size = costs.log_header_bytes + len(log.depvec) * costs.depvec_entry_bytes
    for value in log.updates.values():
        size += costs.key_bytes + value_bytes(value, costs)
    return size


def _walk_message(message):
    """(byte_size, state_bytes) recomputed from ``logs``/``commits``."""
    costs = message.costs
    size, state = costs.message_header_bytes, 0
    for logs in message.logs.values():
        for log in logs:
            size += _walk_log_bytes(log, costs)
            state += sum(value_bytes(v, costs) for v in log.updates.values())
    for commit in message.commits.values():
        size += (costs.commit_header_bytes +
                 len(commit.entries) * costs.depvec_entry_bytes)
    return size, state


_MBOXES = st.sampled_from(["a", "b", "c"])
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.binary(max_size=40), st.text(max_size=10),
                    st.tuples(st.integers(), st.binary(max_size=8)))
_LOGS = st.builds(
    PiggybackLog, _MBOXES,
    depvec=st.dictionaries(st.integers(0, 7), st.integers(0, 50), max_size=4),
    updates=st.dictionaries(st.text(max_size=4), _VALUES, max_size=4))
_COMMITS = st.builds(
    CommitVector, _MBOXES,
    st.dictionaries(st.integers(0, 7), st.integers(0, 50), max_size=4))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add_log"), _LOGS),
    st.tuples(st.just("add_logs"), st.lists(_LOGS, max_size=3)),
    st.tuples(st.just("take_logs"), _MBOXES),
    st.tuples(st.just("set_commit"), _COMMITS),
    st.tuples(st.just("attach"), st.none()),
    st.tuples(st.just("detach"), st.none()),
), max_size=25)


class TestSizeCacheCoherence:
    @given(_OPS)
    def test_running_totals_equal_a_reference_walk(self, ops):
        message = PiggybackMessage()
        packet = Packet(flow=FlowKey(1, 2, 3, 4), size=256)
        for name, arg in ops:
            if name == "attach":
                packet.attach("ftc", message)
            elif name == "detach":
                packet.detach("ftc")
            else:
                getattr(message, name)(arg)
            size, state = _walk_message(message)
            assert message.byte_size() == size
            assert message.state_bytes() == state
            aboard = size if packet.attachment("ftc") is message else 0
            assert packet.wire_size == 256 + aboard

    @given(_LOGS, _LOGS)
    def test_a_log_shared_by_two_messages_is_sized_for_both(self, log, other):
        first, second = PiggybackMessage(), PiggybackMessage()
        first.add_logs([log, other])
        second.add_log(log)
        first.take_logs(other.mbox)
        assert first.byte_size() == _walk_message(first)[0]
        assert second.byte_size() == _walk_message(second)[0]

    @given(_LOGS)
    def test_log_sizes_follow_the_cost_model_asked_about(self, log):
        fat = dataclasses.replace(DEFAULT_COSTS, key_bytes=40,
                                  log_header_bytes=9)
        for costs in (DEFAULT_COSTS, fat, DEFAULT_COSTS):
            assert log.byte_size(costs) == _walk_log_bytes(log, costs)
            assert log.state_bytes(costs) == sum(
                value_bytes(v, costs) for v in log.updates.values())
