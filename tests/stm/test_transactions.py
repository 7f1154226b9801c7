"""Tests for transactional packet processing: 2PL, wound-wait, serializability."""

import pytest

from repro.sim import Simulator
from repro.stm import (
    PartitionSpace,
    StateStore,
    TransactionManager,
)


def _manager(sim, n_partitions=8, **kwargs):
    return TransactionManager(sim, StateStore(), PartitionSpace(n_partitions),
                              **kwargs)


def run_tx(sim, manager, body, **kwargs):
    """Run one transaction to completion and return its result."""
    return sim.run(until=sim.process(manager.run(body, **kwargs)))


class TestBasicSemantics:
    def test_commit_applies_writes(self):
        sim = Simulator()
        manager = _manager(sim)

        def body(ctx):
            ctx.write("k", 42)

        result = run_tx(sim, manager, body)
        assert manager.store.get("k") == 42
        assert result.wrote
        assert result.writes == {"k": 42}

    def test_read_only_transaction(self):
        sim = Simulator()
        manager = _manager(sim)
        manager.store.apply("k", 5)

        def body(ctx):
            return ctx.read("k")

        result = run_tx(sim, manager, body)
        assert not result.wrote
        assert result.value == 5
        assert result.read_keys == {"k"}

    def test_read_your_own_writes(self):
        sim = Simulator()
        manager = _manager(sim)
        seen = []

        def body(ctx):
            ctx.write("k", 1)
            seen.append(ctx.read("k"))

        run_tx(sim, manager, body)
        assert seen[-1] == 1

    def test_delete_visible_and_replicable(self):
        sim = Simulator()
        manager = _manager(sim)
        manager.store.apply("k", 1)

        def body(ctx):
            ctx.delete("k")
            return ctx.read("k", "absent")

        result = run_tx(sim, manager, body)
        assert result.value == "absent"
        assert "k" not in manager.store
        assert result.wrote  # deletion must appear in the piggyback log

    def test_hold_time_elapses(self):
        sim = Simulator()
        manager = _manager(sim)

        def body(ctx):
            ctx.write("k", 1)

        run_tx(sim, manager, body, hold_time=1e-6)
        assert sim.now == pytest.approx(1e-6)

    def test_partitions_include_reads_and_writes(self):
        sim = Simulator()
        manager = _manager(sim, n_partitions=1024)

        def body(ctx):
            ctx.read("r")
            ctx.write("w", 1)

        result = run_tx(sim, manager, body)
        space = manager.partitions
        assert result.partitions == frozenset(
            {space.partition_of("r"), space.partition_of("w")})

    def test_committed_counter(self):
        sim = Simulator()
        manager = _manager(sim)
        for i in range(3):
            run_tx(sim, manager, lambda ctx, i=i: ctx.write("k", i))
        assert manager.committed == 3


class TestConcurrencyControl:
    def test_conflicting_transactions_serialize(self):
        """Two increments of the same counter must not lose an update."""
        sim = Simulator()
        manager = _manager(sim)

        def increment(ctx):
            ctx.write("count", ctx.read("count", 0) + 1)

        def worker(sim):
            yield from manager.run(increment, hold_time=1e-6)

        for _ in range(10):
            sim.process(worker(sim))
        sim.run()
        assert manager.store.get("count") == 10

    def test_serial_holds_extend_completion_time(self):
        """N conflicting transactions of hold h take ~N*h: true serialization."""
        sim = Simulator()
        manager = _manager(sim)

        def body(ctx):
            ctx.write("shared", ctx.read("shared", 0) + 1)

        def worker(sim):
            yield from manager.run(body, hold_time=1e-6)

        for _ in range(8):
            sim.process(worker(sim))
        sim.run()
        assert sim.now >= 8e-6 - 1e-12

    def test_disjoint_transactions_run_in_parallel(self):
        sim = Simulator()
        manager = _manager(sim, n_partitions=64)

        def make_body(i):
            def body(ctx):
                ctx.write(("key", i), 1)
            return body

        def worker(sim, i):
            yield from manager.run(make_body(i), hold_time=1e-6)

        for i in range(8):
            sim.process(worker(sim, i))
        sim.run()
        # Different partitions -> concurrent holds -> finish together.
        assert sim.now == pytest.approx(1e-6)

    def test_lock_conflict_counted(self):
        sim = Simulator()
        manager = _manager(sim)

        def body(ctx):
            ctx.write("shared", ctx.read("shared", 0) + 1)

        def worker(sim):
            yield from manager.run(body, hold_time=1e-6)

        for _ in range(4):
            sim.process(worker(sim))
        sim.run()
        assert manager.lock_stats.conflicts >= 3

    def test_access_set_growth_retries(self):
        """A transaction whose live execution touches new keys retries safely."""
        sim = Simulator()
        manager = _manager(sim, n_partitions=1024)
        manager.store.apply("route", "a")

        def body(ctx):
            # Which key we touch depends on a value another tx may change.
            target = ctx.read("route")
            ctx.write(("bucket", target), 1)

        def flipper(ctx):
            ctx.write("route", "b")

        def worker(sim):
            yield from manager.run(body, hold_time=2e-6)

        def interferer(sim):
            yield sim.timeout(5e-7)
            yield from manager.run(flipper, hold_time=1e-7)

        sim.process(worker(sim))
        sim.process(interferer(sim))
        sim.run()
        assert ("bucket", "a") in manager.store or ("bucket", "b") in manager.store


class TestWoundWait:
    def test_unordered_acquisition_no_deadlock(self):
        """Opposite-order lock acquisition must resolve via wounding."""
        sim = Simulator()
        manager = _manager(sim, n_partitions=1024, acquire_order="declared")

        def ab(ctx):
            ctx.write("a", ctx.read("a", 0) + 1)
            ctx.write("b", ctx.read("b", 0) + 1)

        def ba(ctx):
            ctx.write("b", ctx.read("b", 0) + 1)
            ctx.write("a", ctx.read("a", 0) + 1)

        def worker(sim, body):
            yield from manager.run(body, hold_time=1e-6)

        for _ in range(5):
            sim.process(worker(sim, ab))
            sim.process(worker(sim, ba))
        sim.run()
        assert manager.store.get("a") == 10
        assert manager.store.get("b") == 10

    def test_heavy_interleaving_progress(self):
        sim = Simulator()
        manager = _manager(sim, n_partitions=1024, acquire_order="declared")
        keys = ["k0", "k1", "k2", "k3"]

        def make_body(order):
            def body(ctx):
                for key in order:
                    ctx.write(key, ctx.read(key, 0) + 1)
            return body

        def worker(sim, order, delay):
            yield sim.timeout(delay)
            yield from manager.run(make_body(order), hold_time=1e-6)

        import itertools
        perms = list(itertools.permutations(keys))
        for i, perm in enumerate(perms):
            sim.process(worker(sim, list(perm), delay=(i % 4) * 2e-7))
        sim.run()
        total = sum(manager.store.get(k) for k in keys)
        assert total == len(perms) * len(keys)

    def test_aborted_transactions_reexecute(self):
        sim = Simulator()
        manager = _manager(sim, n_partitions=1024, acquire_order="declared")

        def ab(ctx):
            ctx.write("a", ctx.read("a", 0) + 1)
            ctx.write("b", ctx.read("b", 0) + 1)

        def ba(ctx):
            ctx.write("b", ctx.read("b", 0) + 1)
            ctx.write("a", ctx.read("a", 0) + 1)

        def worker(sim, body):
            yield from manager.run(body, hold_time=1e-5)

        for _ in range(20):
            sim.process(worker(sim, ab))
            sim.process(worker(sim, ba))
        sim.run()
        # Everything committed despite any wounds.
        assert manager.store.get("a") == 40
        assert manager.store.get("b") == 40

    def test_invalid_acquire_order_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            _manager(sim, acquire_order="random")


class TestSerializability:
    def test_randomized_schedule_equals_serial_outcome(self):
        """Transfer workload: total balance is invariant under any schedule."""
        sim = Simulator()
        manager = _manager(sim, n_partitions=16)
        accounts = [("acct", i) for i in range(8)]
        for acct in accounts:
            manager.store.apply(acct, 100)

        def make_transfer(src, dst, amount):
            def body(ctx):
                ctx.write(src, ctx.read(src, 0) - amount)
                ctx.write(dst, ctx.read(dst, 0) + amount)
            return body

        import random
        rng = random.Random(42)

        def worker(sim, body, delay):
            yield sim.timeout(delay)
            yield from manager.run(body, hold_time=rng.uniform(1e-7, 1e-6))

        for _ in range(100):
            src, dst = rng.sample(accounts, 2)
            sim.process(worker(sim, make_transfer(src, dst, rng.randint(1, 10)),
                               rng.uniform(0, 2e-5)))
        sim.run()
        assert sum(manager.store.get(a) for a in accounts) == 800
        assert manager.committed == 100
