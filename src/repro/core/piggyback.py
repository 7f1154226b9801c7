"""Piggyback logs, commit vectors, and piggyback messages (§4.1, §5.1).

A *piggyback log* carries one packet transaction's state updates for
one middlebox, ordered by a (sparse) dependency vector.  A *commit
vector* is a tail's announcement that everything up to its MAX vector
has been replicated f+1 times.  A *piggyback message* is the container
a packet actually carries: a list of in-flight logs per middlebox plus
the latest commit vector per middlebox.

Byte sizes are estimated from the cost model's serialization constants
so wire and copy costs reflect what a real implementation would pay
(FTC appends the message after the payload and adjusts the IP length).

Sizes are paid for once (PROTOCOL.md §13.4): a log is immutable once
constructed and the same object rides every hop, so it sizes itself on
first use; a message keeps running totals that its four mutators
(``add_log``/``add_logs``/``take_logs``/``set_commit``) maintain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from .costs import CostModel, DEFAULT_COSTS

__all__ = ["PiggybackLog", "CommitVector", "PiggybackMessage", "value_bytes"]

_log_ids = itertools.count(1)


def value_bytes(value: Any, costs: CostModel = DEFAULT_COSTS) -> int:
    """Estimate the serialized size of one state value."""
    if value is None:
        return 1
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (tuple, list)):
        return sum(value_bytes(v, costs) for v in value)
    if isinstance(value, dict):
        return sum(costs.key_bytes + value_bytes(v, costs)
                   for v in value.values())
    # Flow keys and other small records serialize to ~a 5-tuple.
    return costs.key_bytes


class PiggybackLog:
    """State updates of one packet transaction at one middlebox.

    ``depvec`` maps accessed partition -> pre-increment sequence
    number; partitions absent from it are "don't care" (§4.3).  A
    read-only transaction produces a no-op log (empty depvec, no
    updates) which replicas skip over.

    Frozen at construction: nothing rebinds ``depvec``/``updates`` or
    changes their contents afterwards, so ``is_noop`` is a field.
    """

    __slots__ = ("mbox", "depvec", "updates", "packet_id", "log_id",
                 "is_noop", "_sized")

    def __init__(self, mbox: str, depvec: Optional[Dict[int, int]] = None,
                 updates: Optional[Dict[Hashable, Any]] = None,
                 packet_id: int = 0, log_id: Optional[int] = None):
        self.mbox = mbox
        self.depvec = depvec if depvec is not None else {}
        self.updates = updates if updates is not None else {}
        self.packet_id = packet_id
        self.log_id = log_id if log_id is not None else next(_log_ids)
        self.is_noop = not self.depvec and not self.updates
        #: ``(costs, wire bytes, state bytes)`` from the first sizing.
        self._sized: Optional[Tuple[CostModel, int, int]] = None

    def __eq__(self, other):
        if other.__class__ is not PiggybackLog:
            return NotImplemented
        return ((self.mbox, self.depvec, self.updates, self.packet_id,
                 self.log_id) ==
                (other.mbox, other.depvec, other.updates, other.packet_id,
                 other.log_id))

    __hash__ = None

    def _sizes(self, costs: CostModel) -> Tuple[CostModel, int, int]:
        sized = self._sized
        if sized is None or sized[0] is not costs:
            state = sum(value_bytes(value, costs)
                        for value in self.updates.values())
            wire = (costs.log_header_bytes +
                    len(self.depvec) * costs.depvec_entry_bytes +
                    len(self.updates) * costs.key_bytes + state)
            self._sized = sized = (costs, wire, state)
        return sized

    def byte_size(self, costs: CostModel = DEFAULT_COSTS) -> int:
        return self._sizes(costs)[1]

    def state_bytes(self, costs: CostModel = DEFAULT_COSTS) -> int:
        """Bytes of raw state values carried (for copy-cost accounting)."""
        # Asked per log per hop: answer from the cache without a call.
        sized = self._sized
        if sized is None or sized[0] is not costs:
            sized = self._sizes(costs)
        return sized[2]

    def __repr__(self):
        return (f"<PBLog {self.mbox} vec={self.depvec} "
                f"updates={len(self.updates)}>")


@dataclass
class CommitVector:
    """A tail's MAX vector: all updates before it are f+1 replicated.

    ``entries`` may be a delta (only partitions that advanced since the
    tail's previous announcement); receivers merge with element-wise max.
    """

    mbox: str
    entries: Dict[int, int] = field(default_factory=dict)

    def byte_size(self, costs: CostModel = DEFAULT_COSTS) -> int:
        return (costs.commit_header_bytes +
                len(self.entries) * costs.depvec_entry_bytes)

    def merge_into(self, target: Dict[int, int]) -> bool:
        """Element-wise max into ``target``; True if any entry rose."""
        raised = False
        current = target.get
        for partition, seq in self.entries.items():
            if seq > current(partition, -1):
                target[partition] = seq
                raised = True
        return raised

    def covers(self, depvec: Dict[int, int]) -> bool:
        """True when every entry of ``depvec`` is replicated under this vector.

        A log with pre-increment value v on partition p is replicated
        once the commit vector reports MAX[p] >= v + 1.
        """
        return all(self.entries.get(partition, 0) >= seq + 1
                   for partition, seq in depvec.items())

    def __repr__(self):
        return f"<Commit {self.mbox} {self.entries}>"


class PiggybackMessage:
    """The per-packet container of logs and commit vectors."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS):
        self.costs = costs
        #: Read freely; mutate only through the four methods below --
        #: they keep the running size totals in step.
        self.logs: Dict[str, List[PiggybackLog]] = {}
        self.commits: Dict[str, CommitVector] = {}
        self._bytes = costs.message_header_bytes
        self._state_bytes = 0

    def add_log(self, log: PiggybackLog) -> None:
        logs = self.logs.get(log.mbox)
        if logs is None:
            self.logs[log.mbox] = [log]
        else:
            logs.append(log)
        sized = log._sized
        if sized is None or sized[0] is not self.costs:
            sized = log._sizes(self.costs)
        self._bytes += sized[1]
        self._state_bytes += sized[2]

    def add_logs(self, logs: List[PiggybackLog]) -> None:
        for log in logs:
            self.add_log(log)

    def take_logs(self, mbox: str) -> List[PiggybackLog]:
        """Remove and return all logs for ``mbox`` (done by its tail)."""
        logs = self.logs.pop(mbox, None)
        if logs is None:
            return []
        costs = self.costs
        for log in logs:
            sized = log._sized
            if sized is None or sized[0] is not costs:
                sized = log._sizes(costs)
            self._bytes -= sized[1]
            self._state_bytes -= sized[2]
        return logs

    def logs_for(self, mbox: str) -> List[PiggybackLog]:
        return self.logs.get(mbox, [])

    def set_commit(self, commit: CommitVector) -> None:
        """Attach ``commit`` (replacing the mbox's previous one); its
        entries must not change while it is aboard."""
        previous = self.commits.get(commit.mbox)
        if previous is not None:
            self._bytes -= previous.byte_size(self.costs)
        self.commits[commit.mbox] = commit
        self._bytes += commit.byte_size(self.costs)

    def commit_for(self, mbox: str) -> Optional[CommitVector]:
        return self.commits.get(mbox)

    @property
    def n_logs(self) -> int:
        return sum(len(logs) for logs in self.logs.values())

    def byte_size(self) -> int:
        return self._bytes

    def state_bytes(self) -> int:
        """Bytes of raw state values carried (for copy-cost accounting)."""
        return self._state_bytes

    def __repr__(self):
        return (f"<PBMsg logs={{{', '.join(f'{m}:{len(log)}' for m, log in self.logs.items())}}} "
                f"commits={sorted(self.commits)}>")
