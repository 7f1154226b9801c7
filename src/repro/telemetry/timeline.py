"""Recovery timelines: chaos + orchestrator events, stitched.

A :class:`RecoveryTimeline` accumulates the structured event stream a
failure produces -- ``chaos/fault-injected``, ``orch/suspected``
(first missed heartbeat), ``orch/confirmed`` (detection), then the
§5.2 recovery phases (``recovery/initializing``, ``spawned``,
``fetching``, ``fetched``, ``rerouting``, ``committed``) -- and parses
it back into :class:`TimelineAttempt` records whose per-phase
durations sum exactly to the Fig 13 recovery time:

* ``initialization`` = spawned − initializing
* ``state_recovery`` = fetched − fetching
* ``rerouting``      = committed − rerouting

``recover_positions`` fires each pair back-to-back with no simulated
time in between, so the three durations partition the attempt span;
the soak auditor checks that invariant against every
:class:`~repro.core.recovery.RecoveryReport`.

Events arrive only through :meth:`~repro.telemetry.Telemetry.emit`,
which keeps the :data:`~.bundle.EVENTS` rows whose timeline column is
set here and writes the same ``(component, kind)`` to the flight ring
when one is recording (PROTOCOL.md §7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bundle import EVENTS

__all__ = ["TimelineEvent", "TimelineAttempt", "RecoveryTimeline",
           "TIMELINE_EVENT_KINDS"]

#: Every ``(component, kind)`` a timeline may carry, in typical firing
#: order: the :data:`~.bundle.EVENTS` rows whose timeline column is set.
TIMELINE_EVENT_KINDS = tuple(key for key, route in EVENTS.items()
                             if route.timeline)

#: The per-phase duration names of one attempt (Fig 13's columns).
PHASE_NAMES = ("initialization", "state_recovery", "rerouting")


@dataclass(frozen=True)
class TimelineEvent:
    """One instant on the recovery timeline."""

    t: float
    component: str
    kind: str
    positions: Tuple[int, ...] = ()
    epoch: Optional[int] = None
    detail: str = ""

    def __str__(self):
        where = f" p{list(self.positions)}" if self.positions else ""
        extra = f" ({self.detail})" if self.detail else ""
        return (f"[{self.t * 1e3:.3f}ms] {self.component}/{self.kind}"
                f"{where}{extra}")


@dataclass
class TimelineAttempt:
    """One pass through ``recover_positions``, parsed from events."""

    positions: Tuple[int, ...]
    phases: Dict[str, float] = field(default_factory=dict)
    committed: bool = False

    @property
    def total_s(self) -> float:
        """Sum of the per-phase durations (== RecoveryReport.total_s)."""
        return sum(self.phases.values())


class RecoveryTimeline:
    """Append-only event log + attempt parser."""

    enabled = True

    def __init__(self):
        self.events: List[TimelineEvent] = []

    def record(self, component: str, kind: str,
               positions: Sequence[int] = (), *, t: float,
               epoch: Optional[int] = None, detail: str = "") -> None:
        if (component, kind) not in TIMELINE_EVENT_KINDS:
            raise ValueError(
                f"unknown timeline event {component}/{kind}")
        self.events.append(TimelineEvent(
            t=t, component=component, kind=kind, positions=tuple(positions),
            epoch=epoch, detail=detail))

    # -- parsing ---------------------------------------------------------------

    def attempts(self) -> List[TimelineAttempt]:
        """Recovery attempts in order; aborted ones have committed=False."""
        attempts: List[TimelineAttempt] = []
        current: Optional[TimelineAttempt] = None
        marks: Dict[str, float] = {}
        for event in self.events:
            if event.component != "recovery":
                continue
            if event.kind == "initializing":
                current = TimelineAttempt(positions=event.positions)
                attempts.append(current)
                marks = {"initializing": event.t}
            elif current is None:
                continue
            elif event.kind == "spawned":
                current.phases["initialization"] = \
                    event.t - marks.get("initializing", event.t)
            elif event.kind == "fetching":
                marks["fetching"] = event.t
            elif event.kind == "fetched":
                current.phases["state_recovery"] = \
                    event.t - marks.get("fetching", event.t)
            elif event.kind == "rerouting":
                marks["rerouting"] = event.t
            elif event.kind == "committed":
                current.phases["rerouting"] = \
                    event.t - marks.get("rerouting", event.t)
                current.committed = True
                current = None
        return attempts

    def committed_attempts(self) -> List[TimelineAttempt]:
        return [a for a in self.attempts() if a.committed]

    # -- export / rendering ------------------------------------------------------

    def chrome_events(self) -> List[Dict]:
        """The timeline as instants on the control-plane track (tid 9998)."""
        return [{"name": f"{e.component}/{e.kind}", "cat": "ctrl", "ph": "i",
                 "ts": e.t * 1e6, "pid": 0, "tid": 9_998, "s": "t",
                 "args": {"positions": list(e.positions), "epoch": e.epoch,
                          "detail": e.detail}}
                for e in self.events]

    def render(self) -> str:
        """An aligned text report of events + per-attempt durations."""
        from ..metrics.reporting import format_table
        rows = [(f"{e.t * 1e3:.3f}", f"{e.component}/{e.kind}",
                 ",".join(str(p) for p in e.positions) or "-",
                 e.detail or "-") for e in self.events]
        text = format_table(["t (ms)", "event", "positions", "detail"], rows,
                            title="recovery timeline")
        lines = [text]
        for i, attempt in enumerate(self.attempts()):
            status = "committed" if attempt.committed else "aborted"
            phases = "  ".join(
                f"{name}={attempt.phases.get(name, 0.0) * 1e3:.3f}ms"
                for name in PHASE_NAMES)
            lines.append(f"attempt {i} p{list(attempt.positions)} {status}: "
                         f"{phases}  total={attempt.total_s * 1e3:.3f}ms")
        return "\n".join(lines)
