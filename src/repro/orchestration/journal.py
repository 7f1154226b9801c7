"""Replicated command journal (PROTOCOL.md §9).

Before every side-effecting step -- declare-failed, spawn, re-steer,
committed, abandoned -- the leader appends a :class:`JournalEntry` to
its local journal and replicates it to a majority of ensemble members
(write-ahead: the entry reaches a quorum *before* the side effect).
Entries are keyed by ``(epoch, seq)`` so duplicated control messages
append idempotently, and a peer rejects entries older than its highest
granted epoch -- the journal path doubles as a fencing probe, so a
leader that lost its majority discovers it on its next command, not
an unbounded time later.

A new leader quorum-reads peers' journals on takeover and computes
``open_commands()``: positions declared failed whose recovery no
entry shows committed or abandoned, and reconfigurations prepared but
never committed or aborted.  The positions are the in-flight
recoveries it must resume (after probing -- the previous leader may
have died *after* the re-steer took effect but before journaling
``committed``, in which case the position answers probes and needs
nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["JournalEntry", "CommandJournal", "JOURNAL_STEPS"]

#: Every step kind a journal may carry.  Recovery uses the first five;
#: live reconfiguration (PROTOCOL.md §11) journals its two-phase apply
#: through the same write-ahead quorum path.
JOURNAL_STEPS = ("declare-failed", "spawn", "re-steer", "committed",
                 "abandoned", "reconfig-prepare", "reconfig-switch",
                 "reconfig-commit", "reconfig-abort",
                 # Brownout transitions (PROTOCOL.md §12.3) go through
                 # the same quorum write-ahead path.
                 "brownout-enter", "brownout-escalate",
                 "brownout-deescalate", "brownout-exit")


@dataclass(frozen=True)
class JournalEntry:
    """One write-ahead command record."""

    epoch: int
    seq: int
    step: str
    positions: Tuple[int, ...]
    t: float
    detail: str = ""

    def key(self) -> Tuple[int, int]:
        return (self.epoch, self.seq)


class CommandJournal:
    """Idempotent, (epoch, seq)-ordered append-only command log."""

    def __init__(self):
        self._entries: Dict[Tuple[int, int], JournalEntry] = {}

    def append(self, entry: JournalEntry) -> bool:
        """Add one entry; returns False on an (idempotent) duplicate."""
        if entry.step not in JOURNAL_STEPS:
            raise ValueError(f"unknown journal step {entry.step!r}")
        if entry.key() in self._entries:
            return False
        self._entries[entry.key()] = entry
        return True

    def merge(self, entries: Iterable[JournalEntry]) -> int:
        """Union another journal's entries in; returns how many were new."""
        return sum(1 for entry in entries if self.append(entry))

    def entries(self) -> List[JournalEntry]:
        """All entries in (epoch, seq) order."""
        return [self._entries[key] for key in sorted(self._entries)]

    def __len__(self):
        return len(self._entries)

    def open_commands(self) -> Tuple[Set[int], Dict[Tuple[int, ...], str]]:
        """Declared positions with no later committed/abandoned cover,
        and prepared reconfigurations with no later commit/abort cover,
        read in one ``(epoch, seq)`` pass.  The latter map positions to
        the *latest* uncovered prepare's ``detail``: the operation
        descriptor a new leader needs to resume it."""
        positions: Set[int] = set()
        reconfigs: Dict[Tuple[int, ...], str] = {}
        for entry in self.entries():
            if entry.step == "declare-failed":
                positions |= set(entry.positions)
            elif entry.step in ("committed", "abandoned"):
                positions -= set(entry.positions)
            elif entry.step == "reconfig-prepare":
                reconfigs[entry.positions] = entry.detail
            elif entry.step in ("reconfig-commit", "reconfig-abort"):
                reconfigs.pop(entry.positions, None)
        return positions, reconfigs

    def max_epoch(self) -> int:
        return max((epoch for epoch, _ in self._entries), default=0)
