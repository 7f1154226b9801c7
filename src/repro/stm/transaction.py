"""Packet transactions (§3.2, §4.2).

FTC "models the processing of a packet as a transaction, where
concurrent accesses to shared state are serialized to ensure that
consistent state is captured and replicated."  The runtime here
implements that model for simulated middlebox threads:

1. *Record phase* (zero virtual time): the middlebox body runs against
   a recording context to discover its read/write key set.
2. *Growth phase*: partition locks covering the set are acquired in
   simulated time -- this is where contention, waiting, and wound-wait
   aborts happen and where Fig 6's sharing-level throughput collapse
   comes from.
3. *Critical section*: the configured ``hold_time`` (the packet's
   processing cost from the cycle model) elapses while the locks are
   held, then the body re-executes against the live store and its
   writes are committed atomically.
4. *Shrink phase*: all locks release.

Middlebox bodies must confine their side effects to the transaction
context; they may run more than once per packet.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional, Set

from ..sim import Simulator, Timeout
from ..telemetry import NULL_TELEMETRY
from .locks import LockStats, PartitionLock, TransactionWounded
from .partition import PartitionSpace
from .store import StateStore, TOMBSTONE

__all__ = [
    "Transaction",
    "TransactionContext",
    "TransactionResult",
    "TransactionManager",
]

#: Safety bound; a correct workload never needs anywhere near this.
MAX_ATTEMPTS = 1000


class Transaction:
    """Bookkeeping for one in-flight packet transaction."""

    __slots__ = ("timestamp", "wounded", "phase", "held_locks",
                 "pending_wait", "retries")

    def __init__(self, timestamp: int):
        self.timestamp = timestamp
        self.wounded = False
        self.phase = "idle"  # idle -> acquiring -> holding -> done
        self.held_locks: List[PartitionLock] = []
        self.pending_wait = None
        self.retries = 0

    @property
    def woundable(self) -> bool:
        """Only transactions still growing their lock set may be wounded."""
        return self.phase == "acquiring"

    def wound(self) -> None:
        if not self.woundable or self.wounded:
            return
        self.wounded = True
        if self.pending_wait is not None:
            self.pending_wait.cancel()

    def release_all(self) -> None:
        """Release every held lock, most recently acquired first."""
        held = self.held_locks
        while held:
            held.pop().release(self)

    def __repr__(self):
        return f"<Tx ts={self.timestamp} {self.phase}{' WOUNDED' if self.wounded else ''}>"


class TransactionContext:
    """The state API handed to middlebox bodies.

    Reads see the store overlaid with this transaction's own buffered
    writes; writes are buffered until commit.
    """

    __slots__ = ("_store", "reads", "writes", "access_order", "flow",
                 "thread_id", "now", "extras", "authoritative")

    def __init__(self, store: StateStore, flow=None, thread_id: int = 0,
                 now: float = 0.0, extras: Optional[Dict[str, Any]] = None,
                 authoritative: bool = True):
        self._store = store
        #: False during the STM's record-phase probe; middleboxes should
        #: only bump statistics counters on authoritative executions.
        self.authoritative = authoritative
        self.reads: Set[Hashable] = set()
        self.writes: Dict[Hashable, Any] = {}
        self.access_order: List[Hashable] = []
        self.flow = flow
        self.thread_id = thread_id
        self.now = now
        self.extras = extras or {}

    def _touch(self, key: Hashable) -> None:
        if key not in self.reads and key not in self.writes:
            self.access_order.append(key)

    def read(self, key: Hashable, default: Any = None) -> Any:
        writes = self.writes
        if key not in self.reads:  # _touch, written out
            if key not in writes:
                self.access_order.append(key)
            self.reads.add(key)
        if key in writes:
            value = writes[key]
            return default if value is TOMBSTONE else value
        return self._store.get(key, default)

    def write(self, key: Hashable, value: Any) -> None:
        writes = self.writes
        if key not in writes and key not in self.reads:  # _touch
            self.access_order.append(key)
        writes[key] = value

    def delete(self, key: Hashable) -> None:
        self._touch(key)
        self.writes[key] = TOMBSTONE

    def contains(self, key: Hashable) -> bool:
        self._touch(key)
        self.reads.add(key)
        if key in self.writes:
            return self.writes[key] is not TOMBSTONE
        return key in self._store


class TransactionResult:
    """Outcome of a committed packet transaction."""

    __slots__ = ("writes", "read_keys", "partitions", "retries",
                 "wait_time", "value", "commit_value", "used_htm")

    def __init__(self, writes: Dict[Hashable, Any], read_keys: Set[Hashable],
                 partitions: FrozenSet[int], retries: int, wait_time: float,
                 value: Any = None, commit_value: Any = None,
                 used_htm: bool = False):
        self.writes = writes
        self.read_keys = read_keys
        self.partitions = partitions
        self.retries = retries
        self.wait_time = wait_time
        self.value = value  # the body's return (e.g. verdict, out packet)
        self.commit_value = commit_value  # the on_commit hook's return
        self.used_htm = used_htm  # committed via the HTM fast path

    @property
    def wrote(self) -> bool:
        return bool(self.writes)

    @property
    def read_only(self) -> bool:
        return not self.writes

    def __repr__(self):
        return (f"<TxResult writes={len(self.writes)} reads={len(self.read_keys)} "
                f"partitions={sorted(self.partitions)} retries={self.retries}>")


class TransactionManager:
    """Runs packet transactions over one middlebox's state store."""

    def __init__(self, sim: Simulator, store: StateStore,
                 partitions: Optional[PartitionSpace] = None,
                 acquire_order: str = "sorted", name: str = "stm",
                 handoff_delay_s: float = 0.0, spin_threshold: int = 2,
                 htm: bool = False, telemetry=None):
        if acquire_order not in ("sorted", "declared"):
            raise ValueError(f"unknown acquire order {acquire_order!r}")
        self.sim = sim
        self.store = store
        self.partitions = partitions or PartitionSpace()
        self.acquire_order = acquire_order
        self.name = name
        self.lock_stats = LockStats()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._prof = self.telemetry.profiler
        registry = self.telemetry.registry
        self._m_commits = registry.counter(f"{name}/commits")
        self._m_retries = registry.counter(f"{name}/retries")
        wait_hist = registry.histogram(f"{name}/lock_wait_s")
        wound_counter = registry.counter(f"{name}/wounds")
        self.locks = [PartitionLock(sim, i, self.lock_stats,
                                    handoff_delay_s=handoff_delay_s,
                                    spin_threshold=spin_threshold,
                                    wait_hist=wait_hist,
                                    wound_counter=wound_counter)
                      for i in range(self.partitions.n_partitions)]
        #: Hybrid transactional memory (§3.2): uncontended transactions
        #: elide the lock protocol and pay a cheaper commit.
        self.htm = htm
        self.htm_commits = 0
        self.htm_fallbacks = 0
        self._timestamps = itertools.count(1)
        self.committed = 0
        self.total_retries = 0

    def run(self, body: Callable[[TransactionContext], Any],
            hold_time: float = 0.0, flow=None, thread_id: int = 0,
            extras: Optional[Dict[str, Any]] = None,
            on_commit: Optional[Callable[[TransactionContext, FrozenSet[int]], Any]] = None,
            commit_hold_fn: Optional[Callable[[TransactionContext], float]] = None,
            lock_overhead_s: float = 0.0, htm_overhead_s: float = 0.0,
            trace_pid: Optional[int] = None,
            flight_pid: Optional[int] = None):
        """Generator: execute ``body`` transactionally.

        Yields simulation events while waiting for locks and during the
        critical-section ``hold_time``; returns a
        :class:`TransactionResult`.

        ``on_commit`` runs *while the partition locks are still held*,
        right after the writes are applied -- FTC's head uses it to
        stamp its dependency vector atomically with the commit (§4.3).
        It receives the live context and the touched partitions; its
        return value lands in ``result.commit_value``.

        ``commit_hold_fn`` maps the live context to extra seconds spent
        inside the critical section after execution -- FTC charges the
        piggyback-log construction there, since the log must be built
        before the locks release (§4.2).

        ``trace_pid`` enables span recording for this transaction: the
        caller passes the packet id when the tracer sampled it, None
        otherwise (the common, zero-overhead case).

        ``flight_pid`` likewise enables causal flight events (wound /
        lock-wait / commit) on the packet's ``pid:<N>`` chain; it is
        independent of ``trace_pid`` because the tracer samples while
        the flight recorder, when on, sees every packet.
        """
        tracer = self.telemetry.tracer if trace_pid is not None else None
        flight = self.telemetry.flight if flight_pid is not None else None
        sim = self.sim
        store = self.store
        locks = self.locks
        partition_of = self.partitions.partition_of
        tx = Transaction(next(self._timestamps))
        started = sim.now
        needed: Set[int] = set()
        for _attempt in range(MAX_ATTEMPTS):
            tx.wounded = False
            tx.phase = "idle"
            try:
                # Record phase: discover the access set without locks.
                probe = TransactionContext(store, flow, thread_id, sim.now,
                                           extras, False)
                body(probe)
                for key in probe.access_order:
                    needed.add(partition_of(key))
                order = sorted(needed) if self.acquire_order == "sorted" \
                    else self._declared_order(probe, needed)

                used_htm = False
                acquire_started = sim.now
                if self.htm:
                    used_htm = self._htm_try(tx, order)
                if used_htm:
                    self.htm_commits += 1
                else:
                    if self.htm:
                        self.htm_fallbacks += 1
                    tx.phase = "acquiring"
                    for partition in order:
                        lock = locks[partition]
                        # A free lock is granted without a generator;
                        # only a refused one waits (PROTOCOL.md §13.4).
                        if not lock.try_acquire(tx):
                            yield from lock.acquire(tx)
                    if tx.wounded:
                        raise TransactionWounded()
                tx.phase = "holding"
                hold_started = sim.now
                if hold_started > acquire_started:
                    if tracer is not None:
                        tracer.complete(trace_pid, "lock-acquire", "stm",
                                        acquire_started, hold_started,
                                        tid=thread_id, mbox=self.name,
                                        partitions=sorted(needed))
                    if flight is not None:
                        flight.record(
                            "stm", "lock-wait", t=hold_started,
                            pid=flight_pid,
                            detail=f"{self.name} waited "
                                   f"{(hold_started - acquire_started) * 1e6:.2f}us "
                                   f"for partitions {sorted(needed)}",
                            chain=f"pid:{flight_pid}")

                total_hold = hold_time + (htm_overhead_s if used_htm
                                          else lock_overhead_s)
                if total_hold > 0.0:
                    yield Timeout(sim, total_hold)

                # Authoritative execution under mutual exclusion.  The
                # live context is ours alone: the result (and on_commit's
                # log) may keep its dicts without copying them.
                live = TransactionContext(store, flow, thread_id, sim.now,
                                          extras)
                value = body(live)
                live_partitions = self.partitions.partitions_of(
                    live.access_order)
                if not live_partitions <= needed:
                    # The access set grew since the probe (e.g. another
                    # transaction inserted a colliding entry): widen and retry.
                    needed |= live_partitions
                    tx.retries += 1
                    tx.release_all()
                    continue

                commit_hold = 0.0
                if commit_hold_fn is not None:
                    commit_hold = commit_hold_fn(live)
                    if commit_hold > 0.0:
                        yield Timeout(sim, commit_hold)
                store.apply_many(live.writes)
                commit_value = None
                if on_commit is not None:
                    commit_value = on_commit(live, live_partitions)
                tx.phase = "done"
                tx.release_all()
                if self._prof.enabled:
                    self._prof.count("stm/commit")
                self.committed += 1
                self.total_retries += tx.retries
                self._m_commits.inc()
                if tx.retries:
                    self._m_retries.inc(tx.retries)
                if tracer is not None:
                    tracer.complete(trace_pid, "critical-section", "stm",
                                    hold_started, sim.now,
                                    tid=thread_id, mbox=self.name,
                                    retries=tx.retries, htm=used_htm)
                if flight is not None:
                    flight.record(
                        "stm", "commit", t=sim.now, pid=flight_pid,
                        detail=f"{self.name} partitions="
                               f"{sorted(live_partitions)} "
                               f"retries={tx.retries}"
                               f"{' htm' if used_htm else ''}",
                        chain=f"pid:{flight_pid}")
                return TransactionResult(
                    live.writes, live.reads, live_partitions, tx.retries,
                    sim.now - started - total_hold - commit_hold,
                    value, commit_value, used_htm)
            except TransactionWounded:
                tx.retries += 1
                tx.release_all()
                if tracer is not None:
                    tracer.instant(trace_pid, "wounded", "stm", sim.now,
                                   tid=thread_id, mbox=self.name)
                if flight is not None:
                    flight.record(
                        "stm", "wound", t=sim.now, pid=flight_pid,
                        detail=f"{self.name} ts={tx.timestamp} "
                               f"retry {tx.retries}",
                        chain=f"pid:{flight_pid}")
                # Immediately re-execute (same timestamp: no starvation).
                continue
        raise RuntimeError(
            f"transaction in {self.name} aborted {MAX_ATTEMPTS} times; "
            "livelock in the workload?")

    # -- helpers -------------------------------------------------------------

    def _htm_try(self, tx, order) -> bool:
        """Attempt the HTM fast path: claim every needed lock only if
        all are free; on any contention, roll back and report False."""
        taken = []
        for partition in order:
            lock = self.locks[partition]
            if lock.try_acquire(tx):
                taken.append(lock)
            else:
                for held in reversed(taken):
                    held.release(tx)
                return False
        return True

    def _declared_order(self, ctx: TransactionContext, needed: Set[int]) -> List[int]:
        """Partitions in first-access order, then any extras sorted."""
        ordered: List[int] = []
        for key in ctx.access_order:
            partition = self.partitions.partition_of(key)
            if partition not in ordered:
                ordered.append(partition)
        for partition in sorted(needed):
            if partition not in ordered:
                ordered.append(partition)
        return ordered
