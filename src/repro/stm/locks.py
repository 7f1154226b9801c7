"""Partition locks with wound-wait deadlock avoidance (§4.2).

FTC's STM "uses fine grained strict two phase locking ... [and] a
wound-wait scheme that aborts transactions to prevent possible
deadlocks if a lock ordering is not known in advance.  An aborted
transaction is immediately re-executed."

Wound-wait, per Rosenkrantz et al.: when transaction T requests a lock
held by U,

* if T is *older* (smaller timestamp), U is wounded -- it aborts,
  releases its locks, and retries (keeping its original timestamp so
  it eventually becomes oldest and cannot starve);
* if T is *younger*, T simply waits.

A transaction can only be wounded while it is still acquiring locks;
once it holds its full lock set it finishes its (short) critical
section and commits.  Waiters are granted oldest-first.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from ..sim import CancelledError, Simulator
from ..sim.resources import _Waiter
from ..telemetry import NULL_COUNTER, NULL_HISTOGRAM

__all__ = ["PartitionLock", "TransactionWounded", "LockStats"]


class TransactionWounded(Exception):
    """Raised inside a transaction's runner when it has been wounded."""


class LockStats:
    """Aggregate lock behaviour counters for one manager."""

    __slots__ = ("acquisitions", "conflicts", "wounds", "wait_time")

    def __init__(self):
        self.acquisitions = 0
        self.conflicts = 0
        self.wounds = 0
        self.wait_time = 0.0

    def __repr__(self):
        return (f"<LockStats acq={self.acquisitions} conflicts={self.conflicts} "
                f"wounds={self.wounds} wait={self.wait_time:.6f}s>")


class PartitionLock:
    """A mutex over one state partition, with wound-wait arbitration."""

    _tiebreak = itertools.count()

    def __init__(self, sim: Simulator, index: int, stats: Optional[LockStats] = None,
                 handoff_delay_s: float = 0.0, spin_threshold: int = 2,
                 wait_hist=None, wound_counter=None):
        self.sim = sim
        self.index = index
        self.owner = None  # the Transaction currently holding the lock
        self._waiters: List[Tuple[float, int, _Waiter, object]] = []
        self.stats = stats if stats is not None else LockStats()
        #: Telemetry instruments (no-op singletons unless a manager with
        #: an enabled registry created this lock).
        self.wait_hist = wait_hist if wait_hist is not None else NULL_HISTOGRAM
        self.wound_counter = (wound_counter if wound_counter is not None
                              else NULL_COUNTER)
        #: Wakeup latency exposed when handing the lock to a waiter
        #: under light contention.  With a crowd of spinners
        #: (>= spin_threshold still queued) the next owner is already
        #: polling and takes over immediately -- adaptive-mutex
        #: behaviour, and the reason all systems in Fig 6 lose
        #: throughput at intermediate sharing levels.
        self.handoff_delay_s = handoff_delay_s
        self.spin_threshold = spin_threshold

    def try_acquire(self, tx) -> bool:
        """Take the lock only if it is free with no queued waiters.

        Grants under exactly :meth:`acquire`'s no-wait conditions, so a
        caller may try this first and fall back to ``acquire`` (which
        then waits, or raises for a wounded ``tx``).  Also the
        hybrid-HTM fast path (§3.2): an uncontended transaction elides
        the full lock protocol.
        """
        if self.owner is tx:
            return True
        if self.owner is None and not self._waiters and not tx.wounded:
            self._grant(tx)
            return True
        return False

    def acquire(self, tx):
        """Generator: acquire on behalf of ``tx`` (strict 2PL growth phase).

        Raises :class:`TransactionWounded` if ``tx`` is wounded while
        waiting.
        """
        if tx.wounded:
            raise TransactionWounded()
        if self.owner is tx:
            return  # reentrant no-op
        if self.owner is None and not self._waiters:
            self._grant(tx)
            return
        # Conflict: apply the wound-wait rule against the current owner.
        self.stats.conflicts += 1
        owner = self.owner
        if owner is not None and tx.timestamp < owner.timestamp and owner.woundable:
            owner.wound()
            self.stats.wounds += 1
            self.wound_counter.inc()
        waiter = _Waiter(self.sim, self)
        heapq.heappush(self._waiters,
                       (tx.timestamp, next(self._tiebreak), waiter, tx))
        tx.pending_wait = waiter
        wait_started = self.sim.now
        try:
            yield waiter
        except CancelledError:
            raise TransactionWounded() from None
        finally:
            tx.pending_wait = None
            self.stats.wait_time += self.sim.now - wait_started
            self.wait_hist.observe(self.sim.now - wait_started, t=self.sim.now)
        if tx.wounded:
            # Granted but wounded in the same instant: hand the lock on.
            self._release_internal(tx)
            raise TransactionWounded()

    def release(self, tx) -> None:
        if self.owner is not tx:
            raise RuntimeError(
                f"lock {self.index} released by non-owner {tx!r}")
        self._release_internal(tx)

    # -- internals ---------------------------------------------------------

    def _grant(self, tx) -> None:
        self.owner = tx
        tx.held_locks.append(self)
        self.stats.acquisitions += 1

    def _release_internal(self, tx) -> None:
        self.owner = None
        if self in tx.held_locks:
            tx.held_locks.remove(self)
        while self._waiters:
            _ts, _tie, waiter, next_tx = heapq.heappop(self._waiters)
            if waiter.triggered:  # cancelled (wounded) waiter
                continue
            self._grant(next_tx)
            delay = self.handoff_delay_s
            if delay > 0.0 and sum(
                    1 for _t, _i, w, _x in self._waiters
                    if not w.triggered) < self.spin_threshold:
                waiter.succeed(delay=delay)
            else:
                waiter.succeed()
            break
