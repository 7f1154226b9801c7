"""Tests for dependency vectors and ordered replication state."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.depvec import DependencyVector, ProtocolError, ReplicationState
from repro.core.piggyback import CommitVector, PiggybackLog
from repro.stm import StateStore


class TestDependencyVector:
    def test_stamp_returns_pre_increment_values(self):
        vec = DependencyVector(4)
        first = vec.stamp({1})
        assert first == {1: 0}
        second = vec.stamp({1, 3})
        assert second == {1: 1, 3: 0}
        assert vec.seq == [0, 2, 0, 1]

    def test_paper_figure3_head_side(self):
        """Reproduce Fig 3: W(1) then R(1),W(3) on vector [0,3,4]."""
        vec = DependencyVector(3)
        vec.load({1: 3, 2: 4})
        vec.seq[0] = 0
        tx1 = vec.stamp({0})          # W(partition 0) -> "0,x,x"
        assert tx1 == {0: 0}
        tx2 = vec.stamp({0, 2})       # R(0),W(2)      -> "1,x,4"
        assert tx2 == {0: 1, 2: 4}
        assert vec.seq == [2, 3, 5]

    def test_snapshot_load_round_trip(self):
        vec = DependencyVector(8)
        vec.stamp({0, 5})
        vec.stamp({5})
        other = DependencyVector(8)
        other.load(vec.snapshot())
        assert other.seq == vec.seq


def _log(mbox="m", depvec=None, updates=None, pid=0):
    return PiggybackLog(mbox, depvec=depvec or {}, updates=updates or {},
                        packet_id=pid)


class TestReplicationState:
    def test_in_order_apply(self):
        state = ReplicationState("m", 4)
        assert state.offer(_log(depvec={0: 0}, updates={"k": 1})) == 1
        assert state.offer(_log(depvec={0: 1}, updates={"k": 2})) == 1
        assert state.store.get("k") == 2
        assert state.max == {0: 2}

    def test_out_of_order_held_then_applied(self):
        """Fig 3's replica side: the second log arrives first."""
        state = ReplicationState("m", 3)
        state.max = {0: 0, 1: 3, 2: 4}
        late = _log(depvec={0: 1, 2: 4}, updates={"b": 2})
        early = _log(depvec={0: 0}, updates={"a": 1})
        assert state.offer(late) == 0          # held
        assert len(state.pending) == 1
        assert state.offer(early) == 2         # both apply
        assert state.store.get("a") == 1
        assert state.store.get("b") == 2
        assert state.max == {0: 2, 1: 3, 2: 5}

    def test_duplicate_skipped(self):
        state = ReplicationState("m", 2)
        log = _log(depvec={0: 0}, updates={"k": 1})
        state.offer(log)
        assert state.offer(_log(depvec={0: 0}, updates={"k": 1})) == 0
        assert state.duplicates == 1
        assert state.store.get("k") == 1

    def test_noop_ignored(self):
        state = ReplicationState("m", 2)
        assert state.offer(_log()) == 0
        assert state.applied == 0

    def test_disjoint_partitions_commute(self):
        state_ab = ReplicationState("m", 4)
        state_ba = ReplicationState("m", 4)
        log_a = _log(depvec={0: 0}, updates={"a": 1})
        log_b = _log(depvec={1: 0}, updates={"b": 2})
        state_ab.offer(log_a)
        state_ab.offer(log_b)
        state_ba.offer(log_b)
        state_ba.offer(log_a)
        assert state_ab.store == state_ba.store
        assert state_ab.max == state_ba.max

    def test_partial_application_detected(self):
        state = ReplicationState("m", 4)
        state.offer(_log(depvec={0: 0}))
        with pytest.raises(ProtocolError):
            state.offer(_log(depvec={0: 0, 1: 1}))

    def test_wrong_mbox_commit_rejected(self):
        state = ReplicationState("m", 4)
        with pytest.raises(ProtocolError):
            state.absorb_commit(CommitVector("other", {}))

    def test_commit_vector_full_and_delta(self):
        state = ReplicationState("m", 4)
        state.offer(_log(depvec={0: 0}))
        state.offer(_log(depvec={1: 0}))
        full = state.commit_vector()
        assert full.entries == {0: 1, 1: 1}
        delta = state.commit_vector(last_sent={0: 1})
        assert delta.entries == {1: 1}

    def test_pruning_drops_replicated_logs(self):
        state = ReplicationState("m", 4)
        state.offer(_log(depvec={0: 0}, updates={"k": 1}))
        state.offer(_log(depvec={0: 1}, updates={"k": 2}))
        assert len(state.retained) == 2
        state.absorb_commit(CommitVector("m", {0: 1}))
        assert len(state.retained) == 1    # first log pruned
        state.absorb_commit(CommitVector("m", {0: 2}))
        assert state.retained == []

    def test_freeze_discards_pending_and_blocks(self):
        state = ReplicationState("m", 4)
        state.offer(_log(depvec={0: 5}))   # out of order -> pending
        state.freeze()
        assert state.pending == []
        assert state.offer(_log(depvec={0: 0}, updates={"k": 1})) == 0
        assert "k" not in state.store
        state.thaw()
        assert state.offer(_log(depvec={0: 0}, updates={"k": 1})) == 1

    def test_export_import_round_trip(self):
        src = ReplicationState("m", 4)
        src.offer(_log(depvec={0: 0}, updates={"k": 1}))
        dst = ReplicationState("m", 4)
        dst.import_state(*src.export_state())
        assert dst.store == src.store
        assert dst.max == src.max
        assert len(dst.retained) == 1

    def test_any_arrival_order_converges(self):
        """Property: a replica applying a causal log set in any arrival
        order reaches the head's store (the heart of §4.3)."""
        head_vec = DependencyVector(4)
        head_store = StateStore()
        logs = []
        rng = random.Random(3)
        for i in range(12):
            keys = rng.sample(["a", "b", "c", "d"], rng.randint(1, 2))
            partitions = {hash(k) % 4 for k in keys}
            updates = {k: (i, k) for k in keys}
            head_store.apply_many(updates)
            logs.append(_log(depvec=head_vec.stamp(partitions),
                             updates=updates, pid=i))
        for _trial in range(20):
            shuffled = logs[:]
            rng.shuffle(shuffled)
            state = ReplicationState("m", 4)
            applied = state.offer_all(shuffled)
            assert applied == len(logs)
            assert state.pending == []
            assert state.store == head_store

    @settings(max_examples=30)
    @given(st.permutations(list(range(8))))
    def test_single_partition_total_order(self, order):
        """Logs on one partition apply in sequence-number order always."""
        logs = [_log(depvec={0: i}, updates={"v": i}) for i in range(8)]
        state = ReplicationState("m", 1)
        for index in order:
            state.offer(logs[index])
        assert state.store.get("v") == 7
        assert state.max == {0: 8}


# -- the one-pass offer against the three-step protocol it replaced -----------

class _ThreeStepState:
    """Reference: classify (``_status``), then ``_apply``, then always
    ``_drain_pending`` -- the protocol ``ReplicationState.offer`` ran
    before the classification and the apply became one walk."""

    def __init__(self, mbox):
        self.mbox = mbox
        self.store = StateStore(mbox)
        self.max = {}
        self.pending = []
        self.held_at = []   # when each pending log was held back
        self.retained = []
        self.applied = 0
        self.duplicates = 0
        self.frozen = False

    def _status(self, log):
        newer = older = exact = 0
        for partition, seq in log.depvec.items():
            current = self.max.get(partition, 0)
            if seq > current:
                newer += 1
            elif seq < current:
                older += 1
            else:
                exact += 1
        if older and (newer or exact):
            raise ProtocolError(f"log {log!r} partially applied")
        if newer:
            return "pending"
        if older:
            return "duplicate"
        return "ready"

    def offer(self, log, now=0.0):
        if self.frozen:
            return 0
        if log.is_noop:
            return 0
        status = self._status(log)
        if status == "duplicate":
            self.duplicates += 1
            return 0
        if status == "pending":
            self.held_at.append(now)
            self.pending.append(log)
            return 0
        self._apply(log)
        return 1 + self._drain_pending()

    def offer_all(self, logs, now=0.0):
        return sum(self.offer(log, now) for log in logs)

    def _apply(self, log):
        self.store.apply_many(log.updates)
        for partition in log.depvec:
            self.max[partition] = self.max.get(partition, 0) + 1
        self.retained.append(log)
        self.applied += 1

    def _unhold(self, log):
        index = self.pending.index(log)
        del self.pending[index], self.held_at[index]

    def _drain_pending(self):
        applied = 0
        progress = True
        while progress:
            progress = False
            for log in list(self.pending):
                status = self._status(log)
                if status == "ready":
                    self._unhold(log)
                    self._apply(log)
                    applied += 1
                    progress = True
                elif status == "duplicate":
                    self._unhold(log)
                    self.duplicates += 1
        return applied


def _twin_logs(specs):
    """Two equal but distinct logs per spec, one for each side."""
    pairs = []
    for index, (depvec, updates) in enumerate(specs):
        pairs.append(tuple(
            PiggybackLog("m", dict(depvec), dict(updates), packet_id=index,
                         log_id=1000 + index) for _side in range(2)))
    return pairs


def _drive_both(reference, state, pairs, steps):
    """Run ``steps`` on both sides; after each, everything observable
    must agree.  A step is ``("offer", i)``, ``("batch", [i, ...])``,
    ``("freeze",)`` or ``("thaw",)``."""
    for tick, step in enumerate(steps):
        now = float(tick)
        outcomes = []
        for side, target in enumerate((reference, state)):
            try:
                if step[0] == "offer":
                    outcomes.append(target.offer(pairs[step[1]][side], now))
                elif step[0] == "batch":
                    outcomes.append(target.offer_all(
                        [pairs[i][side] for i in step[1]], now=now))
                else:
                    target.frozen = step[0] == "freeze"
                    outcomes.append(None)
            except ProtocolError:
                outcomes.append("ProtocolError")
        assert outcomes[0] == outcomes[1], (step, outcomes)
        assert state.store == reference.store
        assert list(state.max.items()) == list(reference.max.items())
        assert ([log.log_id for log in state.pending] ==
                [log.log_id for log in reference.pending])
        assert ([log.log_id for log in state.retained] ==
                [log.log_id for log in reference.retained])
        assert state.applied == reference.applied
        assert state.duplicates == reference.duplicates
        assert state._held_at == reference.held_at


_N_PARTITIONS = 3
_partition_sets = st.sets(st.integers(0, _N_PARTITIONS - 1), max_size=3)
_updates = st.dictionaries(st.sampled_from("abcd"), st.integers(0, 9),
                           max_size=2)


@st.composite
def _log_streams(draw):
    """A head's stamped logs (single- and multi-partition, read-only
    no-ops, updates with an empty vector) delivered in any order, plus
    repeats and arbitrary vectors that land behind, ahead of, or on
    both sides of MAX; offered singly or in batches, sometimes across
    a freeze."""
    head = DependencyVector(_N_PARTITIONS)
    n_head = draw(st.integers(1, 8))
    specs = [(head.stamp(sorted(draw(_partition_sets))), draw(_updates))
             for _ in range(n_head)]
    specs += draw(st.lists(st.tuples(
        st.dictionaries(st.integers(0, _N_PARTITIONS - 1),
                        st.integers(0, 4), max_size=3), _updates),
        max_size=2))
    order = list(draw(st.permutations(range(n_head))))
    for extra in draw(st.lists(st.integers(0, len(specs) - 1), max_size=5)):
        order.insert(draw(st.integers(0, len(order))), extra)
    steps = []
    while order:
        size = draw(st.integers(1, 3))
        chunk, order = order[:size], order[size:]
        steps.append(("offer", chunk[0]) if len(chunk) == 1
                     else ("batch", chunk))
    if draw(st.booleans()):
        frozen_from = draw(st.integers(0, len(steps)))
        steps.insert(frozen_from, ("freeze",))
        steps.insert(draw(st.integers(frozen_from + 1, len(steps))),
                     ("thaw",))
    return specs, steps


class TestOfferAgainstThreeStepReference:
    @settings(max_examples=300, deadline=None)
    @given(_log_streams())
    def test_same_fate_for_every_log(self, stream):
        specs, steps = stream
        _drive_both(_ThreeStepState("m"), ReplicationState("m", _N_PARTITIONS),
                    _twin_logs(specs), steps)

    def test_mixed_entries_raise_on_both_sides_and_change_nothing(self):
        pairs = _twin_logs([({0: 0}, {"a": 1}), ({0: 0, 1: 1}, {"b": 2}),
                            ({1: 0}, {"c": 3})])
        reference, state = _ThreeStepState("m"), ReplicationState("m", 3)
        _drive_both(reference, state, pairs,
                    [("offer", 0), ("offer", 1), ("offer", 2)])
        assert state.applied == 2 and state.pending == []
        with pytest.raises(ProtocolError):
            state.offer(pairs[1][1])

    def test_skipping_the_drain_with_a_log_pending_is_caught(self):
        class NeverDrains(ReplicationState):
            def _drain_pending(self):
                return 0

        pairs = _twin_logs([({0: 0}, {"a": 1}), ({0: 1}, {"a": 2})])
        steps = [("offer", 1), ("offer", 0)]   # held, then unblocked
        _drive_both(_ThreeStepState("m"), ReplicationState("m", 3),
                    _twin_logs([({0: 0}, {"a": 1}), ({0: 1}, {"a": 2})]),
                    steps)
        with pytest.raises(AssertionError):
            _drive_both(_ThreeStepState("m"), NeverDrains("m", 3), pairs,
                        steps)
