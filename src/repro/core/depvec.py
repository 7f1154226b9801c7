"""Data dependency vectors and ordered replication (§4.3).

The head tracks, per state partition, how many transactions have
touched it.  A transaction's piggyback log carries the *pre-increment*
sequence number of every partition it accessed ("don't care" for the
rest), defining a partial order.  A replica may apply a log as soon as
its own MAX vector matches the log's entries exactly -- logs over
disjoint partitions commute, which is what lets replicas replicate
concurrently.

:class:`ReplicationState` is one replica's view of one middlebox: the
state store, the MAX vector, a hold-back queue for out-of-order logs,
and a retained-log buffer for retransmission until commit vectors
prune it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..stm.store import StateStore
from ..telemetry import NULL_TELEMETRY
from .piggyback import CommitVector, PiggybackLog

__all__ = ["DependencyVector", "ReplicationState", "ProtocolError"]


class ProtocolError(Exception):
    """An invariant of the replication protocol was violated."""


#: The three fates :meth:`ReplicationState._ingest` can decide.
_APPLIED, _PENDING, _DUPLICATE = 1, 0, -1


class DependencyVector:
    """The head's per-partition transaction counter."""

    __slots__ = ("seq",)

    def __init__(self, n_partitions: int):
        self.seq: List[int] = [0] * n_partitions

    def stamp(self, partitions: Iterable[int]) -> Dict[int, int]:
        """Record a transaction touching ``partitions``.

        Returns the sparse dependency vector (pre-increment values) to
        piggyback, and increments the touched entries -- callers must
        invoke this under the transaction's partition locks, which is
        how the head serializes vector accesses (§4.3).
        """
        vec = {p: self.seq[p] for p in partitions}
        for p in partitions:
            self.seq[p] += 1
        return vec

    def snapshot(self) -> Dict[int, int]:
        return {p: s for p, s in enumerate(self.seq) if s}

    def load(self, entries: Dict[int, int]) -> None:
        self.seq = [0] * len(self.seq)
        for partition, seq in entries.items():
            self.seq[partition] = seq

    def __repr__(self):
        return f"<DepVec {self.seq}>"


class ReplicationState:
    """One replica's replication machinery for one middlebox."""

    def __init__(self, mbox: str, n_partitions: int,
                 store: Optional[StateStore] = None,
                 telemetry=NULL_TELEMETRY):
        self.mbox = mbox
        self.n_partitions = n_partitions
        self.store = store or StateStore(mbox)
        self.max: Dict[int, int] = {}        # partition -> applied count
        self.pending: List[PiggybackLog] = []
        #: When *this* replica held each pending log back (parallel to
        #: ``pending``): every replica of a group shares the log object,
        #: so the age cannot live on the log.
        self._held_at: List[float] = []
        self.retained: List[PiggybackLog] = []
        self.commit_floor: Dict[int, int] = {}
        self.applied = 0
        self.duplicates = 0
        self.pruned = 0
        self.frozen = False
        #: Every replica of this middlebox counts under one name: the
        #: counters aggregate chain-wide.
        registry = telemetry.registry
        registry.counter(f"repl/{mbox}/logs_applied", lambda: self.applied)
        registry.counter(f"repl/{mbox}/logs_pruned", lambda: self.pruned)
        registry.counter(f"repl/{mbox}/duplicates", lambda: self.duplicates)

    # -- ingestion ---------------------------------------------------------------

    def _ingest(self, log: PiggybackLog) -> int:
        """Decide one log's fate; a ready log is applied on the spot.

        The only classification loop in the file (``offer`` and
        ``_drain_pending`` both come here): every entry equal to MAX
        -> applied, :data:`_APPLIED`; any entry ahead of MAX ->
        :data:`_PENDING`; every entry behind MAX -> :data:`_DUPLICATE`.
        """
        maximum = self.max
        current = maximum.get
        depvec = log.depvec
        newer = older = exact = False
        for partition, seq in depvec.items():
            applied = current(partition, 0)
            if seq == applied:
                exact = True
            elif seq > applied:
                newer = True
            else:
                older = True
        if older:
            if newer or exact:
                # An applied log's entries are all behind MAX; mixing
                # behind/ahead means sequence numbers were corrupted.
                raise ProtocolError(
                    f"log {log!r} partially applied at {self.mbox}: "
                    f"MAX={self.max}")
            return _DUPLICATE
        if newer:
            return _PENDING
        self.store.apply_many(log.updates)
        for partition, seq in depvec.items():
            maximum[partition] = seq + 1  # every entry equalled MAX
        self.retained.append(log)
        self.applied += 1
        return _APPLIED

    def offer(self, log: PiggybackLog, now: float = 0.0) -> int:
        """Ingest one log; returns how many logs were applied (0+).

        Out-of-order logs are held back (stamped with ``now`` so the
        retransmission watchdog can age them); applying one log may
        unblock held ones, so the return value can exceed 1.
        """
        if self.frozen or log.is_noop:
            return 0
        fate = self._ingest(log)
        if fate == _APPLIED:
            # Only a held log can be unblocked: nothing held, no drain.
            return 1 + (self._drain_pending() if self.pending else 0)
        if fate == _DUPLICATE:
            self.duplicates += 1
            return 0
        self.pending.append(log)
        self._held_at.append(now)
        return 0

    def offer_all(self, logs: Iterable[PiggybackLog], now: float = 0.0) -> int:
        return sum(self.offer(log, now) for log in logs)

    def record_local(self, log: PiggybackLog) -> None:
        """Register a log the co-located head just originated.

        The head's store was already updated by the packet transaction;
        only the MAX vector and the retransmission buffer need to move.
        """
        if log.is_noop:
            return
        for partition, seq in log.depvec.items():
            expected = self.max.get(partition, 0)
            if seq != expected:
                raise ProtocolError(
                    f"head log out of order on partition {partition}: "
                    f"stamped {seq}, expected {expected}")
            self.max[partition] = expected + 1
        self.retained.append(log)
        self.applied += 1

    def _drain_pending(self) -> int:
        applied = 0
        pending, held_at = self.pending, self._held_at
        progress = True
        while progress:
            progress = False
            for log in list(pending):
                fate = self._ingest(log)
                if fate == _PENDING:
                    continue
                index = pending.index(log)
                del pending[index], held_at[index]
                if fate == _APPLIED:
                    applied += 1
                    progress = True
                else:
                    self.duplicates += 1
        return applied

    # -- commit vectors / pruning --------------------------------------------------

    def commit_vector(self, last_sent: Optional[Dict[int, int]] = None) -> CommitVector:
        """The tail's announcement; deltas only when ``last_sent`` given."""
        if last_sent is None:
            entries = dict(self.max)
        else:
            entries = {p: s for p, s in self.max.items()
                       if s != last_sent.get(p)}
        return CommitVector(self.mbox, entries)

    def absorb_commit(self, commit: CommitVector) -> None:
        """Merge a commit vector and prune replicated retained logs."""
        if commit.mbox != self.mbox:
            raise ProtocolError(
                f"commit for {commit.mbox} offered to {self.mbox}")
        floor = self.commit_floor
        retained = self.retained
        # Only a floor that rose can put a retained log under it.
        if commit.merge_into(floor) and retained:
            current = floor.get
            kept = []
            keep = kept.append
            for log in retained:
                # Retained until every entry is under the floor.
                for partition, seq in log.depvec.items():
                    if seq + 1 > current(partition, 0):
                        keep(log)
                        break
            if len(kept) != len(retained):
                self.pruned += len(retained) - len(kept)
                self.retained = kept

    def unpruned_logs(self) -> List[PiggybackLog]:
        """Retained logs a successor might be missing (retransmission)."""
        return list(self.retained)

    # -- recovery --------------------------------------------------------------

    def freeze(self) -> None:
        """Stop admitting logs and discard out-of-order holds (§4.1).

        Called on the replica chosen as the source for state recovery,
        so the log propagation invariant holds during the transfer.
        """
        self.frozen = True
        self.pending.clear()
        self._held_at.clear()

    def thaw(self) -> None:
        self.frozen = False

    def export_state(self) -> Tuple[Dict[Hashable, object], Dict[int, int],
                                    List[PiggybackLog]]:
        """(store contents, MAX vector, retained logs) for a new replica."""
        return self.store.snapshot(), dict(self.max), list(self.retained)

    def export_bytes(self, costs) -> int:
        """Wire size of :meth:`export_state` (store plus retained logs)."""
        return self.store.state_bytes() + sum(
            log.byte_size(costs) for log in self.retained)

    def import_state(self, contents, max_vector, retained) -> None:
        self.store.load(contents)
        self.max = dict(max_vector)
        self.retained = list(retained)
        self.pending.clear()
        self._held_at.clear()

    def __repr__(self):
        return (f"<ReplState {self.mbox} applied={self.applied} "
                f"pending={len(self.pending)} retained={len(self.retained)}>")
