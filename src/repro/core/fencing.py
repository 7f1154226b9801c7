"""Epoch fencing for control-plane commands (PROTOCOL.md §9).

When the orchestrator is replicated, every externally visible command
(declare-failed, spawn, re-steer, thaw/abandon) carries the epoch of
the leader that issued it.  The chain side keeps a single
:class:`EpochGate` -- the fencing state shared by the chain's servers
and the cloud provider -- that tracks the highest epoch it has ever
seen and rejects anything older with :class:`StaleEpochError`.  A
paused or partitioned ex-leader that wakes up and replays its loop
therefore cannot double-recover a position the new leader already
handled: its first fenced command kills its leadership instead.

The gate lives in ``repro.core`` (not ``repro.orchestration``) so the
recovery procedure can consult it without a layering inversion; the
default chain carries ``gate = None`` and pays nothing -- single-
orchestrator runs stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..telemetry import NULL_TELEMETRY

__all__ = ["StaleEpochError", "StaleConfigError", "AppliedCommand",
           "EpochGate"]


class StaleEpochError(Exception):
    """A command carried an epoch older than the fence's high-water mark."""


class StaleConfigError(Exception):
    """A chain config version that does not advance the current one.

    Config versions (PROTOCOL.md §11) are strictly monotonic per chain,
    mirroring how leader epochs are monotonic per ensemble; a switch
    that replays an old version is rejected rather than applied.
    """


@dataclass(frozen=True)
class AppliedCommand:
    """One fenced command that actually took effect on the chain."""

    epoch: int
    kind: str
    positions: Tuple[int, ...]
    detail: str
    t: float


class EpochGate:
    """Chain-side fencing token: monotonically advancing max epoch.

    ``check`` admits a command iff its epoch is current (advancing the
    fence as a side effect); ``apply`` additionally records the command
    in ``applied`` so the chaos auditor can prove no position was ever
    recovered twice under different epochs.
    """

    def __init__(self, sim, telemetry=None):
        self.sim = sim
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.max_epoch = 0
        self.fenced_commands = 0
        self.applied: List[AppliedCommand] = []
        self.telemetry.registry.counter("ensemble/fenced_commands",
                                        lambda: self.fenced_commands)

    def check(self, epoch: Optional[int], kind: str = "command",
              positions: Sequence[int] = ()) -> None:
        """Admit or fence one command; ``None`` epochs bypass (unreplicated)."""
        if epoch is None:
            return
        if epoch < self.max_epoch:
            self.fenced_commands += 1
            self.telemetry.emit(
                "fencing", "fenced", positions, t=self.sim.now, epoch=epoch,
                detail=f"{kind} rejected: epoch {epoch} < fence "
                       f"{self.max_epoch}")
            raise StaleEpochError(
                f"{kind} carries epoch {epoch}, fence is at {self.max_epoch}")
        self.max_epoch = epoch

    def apply(self, epoch: Optional[int], kind: str,
              positions: Sequence[int] = (), detail: str = "") -> None:
        """``check`` + record the command as having taken effect."""
        self.check(epoch, kind, positions)
        if epoch is None:
            return
        self.applied.append(AppliedCommand(
            epoch=epoch, kind=kind, positions=tuple(positions),
            detail=detail, t=self.sim.now))
        self.telemetry.emit(
            "fencing", "applied", t=self.sim.now, epoch=epoch,
            detail=f"{kind} positions={list(positions)}"
                   f"{': ' + detail if detail else ''}")
