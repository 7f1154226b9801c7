"""The straight-line transaction path against a lock-protocol reference.

``TransactionManager.run`` takes a free lock with ``try_acquire`` and
only waits through ``PartitionLock.acquire`` when refused
(PROTOCOL.md §13.4).  ``reference_run`` below is the same transaction
protocol with every lock taken through the ``acquire`` generator; the
two must be indistinguishable from outside: same lock statistics, same
commit order, same store, same virtual time, same number of events.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.stm import PartitionSpace, StateStore, TransactionManager
from repro.stm.locks import PartitionLock, TransactionWounded
from repro.stm.transaction import (MAX_ATTEMPTS, Transaction,
                                   TransactionContext)

KEYS = ["a", "b", "c", "d", "e", "f"]


def _partitions(manager, ctx):
    return manager.partitions.partitions_of(ctx.reads | set(ctx.writes))


def _release_all(tx):
    for lock in list(reversed(tx.held_locks)):
        lock.release(tx)


def reference_run(manager, body, hold_time, on_commit):
    """One transaction, every lock through ``PartitionLock.acquire``."""
    sim = manager.sim
    tx = Transaction(next(manager._timestamps))
    needed = set()
    for _attempt in range(MAX_ATTEMPTS):
        tx.wounded = False
        tx.phase = "idle"
        try:
            probe = TransactionContext(manager.store, now=sim.now,
                                       authoritative=False)
            body(probe)
            needed |= _partitions(manager, probe)
            order = sorted(needed) if manager.acquire_order == "sorted" \
                else manager._declared_order(probe, needed)
            tx.phase = "acquiring"
            for partition in order:
                yield from manager.locks[partition].acquire(tx)
            if tx.wounded:
                raise TransactionWounded()
            tx.phase = "holding"
            if hold_time > 0.0:
                yield sim.timeout(hold_time)
            live = TransactionContext(manager.store, now=sim.now)
            body(live)
            touched = _partitions(manager, live)
            if not touched <= needed:
                needed |= touched
                tx.retries += 1
                _release_all(tx)
                continue
            manager.store.apply_many(live.writes)
            on_commit(live, touched)
            tx.phase = "done"
            _release_all(tx)
            manager.committed += 1
            return
        except TransactionWounded:
            tx.retries += 1
            _release_all(tx)
    raise AssertionError("reference transaction livelocked")


def _play(schedule, acquire_order, handoff_delay_s, use_reference):
    """Run ``schedule`` and reduce the run to what must not differ."""
    sim = Simulator()
    manager = TransactionManager(
        sim, StateStore(), PartitionSpace(4), acquire_order=acquire_order,
        handoff_delay_s=handoff_delay_s)
    commit_order = []

    def make_body(keys):
        def body(ctx):
            for key in keys:
                ctx.write(key, ctx.read(key, 0) + 1)
        return body

    def thread(tid, delay, keys, hold_time):
        yield sim.timeout(delay)
        body = make_body(keys)

        def on_commit(ctx, touched):
            commit_order.append((tid, sorted(touched), dict(ctx.writes)))

        if use_reference:
            yield from reference_run(manager, body, hold_time, on_commit)
        else:
            yield from manager.run(body, hold_time=hold_time,
                                   on_commit=on_commit)

    for tid, (delay, keys, hold_time) in enumerate(schedule):
        sim.process(thread(tid, delay, keys, hold_time))
    sim.run()
    stats = manager.lock_stats
    return {
        "lock_stats": (stats.acquisitions, stats.conflicts, stats.wounds,
                       stats.wait_time),
        "commit_order": commit_order,
        "store": dict(manager.store.items()),
        "committed": manager.committed,
        "now": sim.now,
        "events": sim._eid,
    }


_threads = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1e-7, 2e-7, 5e-7]),                  # start
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=4),   # keys
        st.sampled_from([0.0, 1e-7, 3e-7])),                       # hold
    min_size=1, max_size=12)


class TestAgainstTheLockProtocolReference:
    @settings(max_examples=120, deadline=None)
    @given(schedule=_threads,
           acquire_order=st.sampled_from(["sorted", "declared"]),
           handoff_delay_s=st.sampled_from([0.0, 2.5e-7]))
    def test_random_schedules_are_indistinguishable(
            self, schedule, acquire_order, handoff_delay_s):
        straight = _play(schedule, acquire_order, handoff_delay_s, False)
        reference = _play(schedule, acquire_order, handoff_delay_s, True)
        assert straight == reference
        assert straight["committed"] == len(schedule)

    def test_a_wounding_schedule_is_indistinguishable(self):
        # Opposite declared orders: guaranteed conflicts and wounds.
        schedule = [(0.0, ["a", "b"], 3e-7), (0.0, ["b", "a"], 3e-7)] * 6
        straight = _play(schedule, "declared", 2.5e-7, False)
        assert straight == _play(schedule, "declared", 2.5e-7, True)
        assert straight["lock_stats"][2] > 0  # it did wound


class TestWoundedWhileWaiting:
    def test_wounded_on_second_lock_releases_first_and_keeps_timestamp(self):
        sim = Simulator()
        manager = TransactionManager(sim, StateStore(), PartitionSpace(1024),
                                     acquire_order="declared")
        space = manager.partitions
        lock_a = manager.locks[space.partition_of("a")]
        lock_b = manager.locks[space.partition_of("b")]
        seen = []

        def young(ctx):          # takes a, then waits for b
            ctx.write("a", ctx.read("a", 0) + 1)
            ctx.write("b", ctx.read("b", 0) + 1)

        def blocker(ctx):        # holds b while `young` queues on it
            ctx.write("b", ctx.read("b", 0) + 10)

        def old(ctx):            # older than `young`, wants a
            ctx.write("a", ctx.read("a", 0) + 100)

        def run_old(victim):
            # Give the late arrival the oldest timestamp in the system.
            manager._timestamps = iter([0])

            def while_old_holds_a(ctx, touched):
                seen.append(("wounded", victim.timestamp, victim.retries,
                             [lock.index for lock in victim.held_locks]))

            yield from manager.run(old, hold_time=1e-7,
                                   on_commit=while_old_holds_a)

        def watcher():
            yield sim.timeout(2e-7)
            victim = lock_a.owner
            seen.append(("waiting", victim.timestamp, victim.phase,
                         [lock.index for lock in victim.held_locks]))
            yield sim.process(run_old(victim))

        def start_young():
            yield sim.timeout(1e-7)
            yield from manager.run(young, hold_time=1e-7)

        sim.process(manager.run(blocker, hold_time=1e-6))
        sim.process(start_young())
        sim.process(watcher())
        sim.run()

        # Holding `a` and queued on `b`, it was wounded by the older
        # transaction: it let go of `a`, kept its timestamp, retried.
        assert seen == [("waiting", 2, "acquiring", [lock_a.index]),
                        ("wounded", 2, 1, [])]
        assert manager.lock_stats.wounds == 1
        assert manager.store.get("a") == 101
        assert manager.store.get("b") == 11
        assert lock_a.owner is None and lock_b.owner is None
        assert manager.committed == 3


class TestRelease:
    def test_release_all_is_reverse_acquisition_order(self):
        sim = Simulator()
        released = []

        class Recording(PartitionLock):
            def release(self, tx):
                released.append(self.index)
                super().release(tx)

        locks = [Recording(sim, index) for index in range(4)]
        tx = Transaction(1)
        for index in (2, 0, 3):
            assert locks[index].try_acquire(tx)
        tx.release_all()
        assert released == [3, 0, 2]
        assert tx.held_locks == []
        assert all(lock.owner is None for lock in locks)

    def test_release_by_non_owner_still_raises(self):
        sim = Simulator()
        lock = PartitionLock(sim, 0)
        owner, stranger = Transaction(1), Transaction(2)
        assert lock.try_acquire(owner)
        with pytest.raises(RuntimeError, match="non-owner"):
            lock.release(stranger)
        assert lock.owner is owner

    def test_try_acquire_grants_exactly_when_acquire_would_not_wait(self):
        sim = Simulator()
        lock = PartitionLock(sim, 0)
        first, second, wounded = (Transaction(1), Transaction(2),
                                  Transaction(3))
        assert lock.try_acquire(first)
        assert lock.try_acquire(first)           # reentrant
        assert not lock.try_acquire(second)      # held: must wait
        lock.release(first)
        wounded.wounded = True
        assert not lock.try_acquire(wounded)     # acquire() would raise
        assert lock.owner is None
        assert lock.stats.acquisitions == 1


class TestResultAfterCommit:
    def test_result_reads_back_what_was_committed(self):
        """FTMB's ``want_result`` path reads the result after the
        locks are gone; it must show the committed access set."""
        sim = Simulator()
        manager = TransactionManager(sim, StateStore(), PartitionSpace(8))
        manager.store.apply("seen", 7)

        def body(ctx):
            ctx.write("count", ctx.read("seen") + 1)
            ctx.delete("gone")
            return "verdict"

        result = sim.run(until=sim.process(
            manager.run(body, hold_time=1e-7)))
        # A later transaction must not disturb what the result shows.
        sim.run(until=sim.process(
            manager.run(lambda ctx: ctx.write("count", 99))))
        assert result.value == "verdict"
        assert result.read_keys == {"seen"}
        assert set(result.writes) == {"count", "gone"}
        assert result.writes["count"] == 8
        assert result.wrote
        assert result.partitions == manager.partitions.partitions_of(
            ["seen", "count", "gone"])
        assert manager.store.get("count") == 99
