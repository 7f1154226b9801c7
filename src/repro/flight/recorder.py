"""The causal flight recorder (PROTOCOL.md §10).

A :class:`FlightRecorder` is the chain's always-on black box: a
bounded ring buffer of structured causal events recorded at every
decision point of the system -- STM wound/wait/commit, piggyback
append/apply, buffer hold/release/shed, channel retransmit/NACK/reset,
recovery phases, elections, journal writes, and epoch fencing.  Where
PR 2's telemetry answers "how much / how fast", the flight recorder
answers "what happened, and in what causal order".

Every event carries the §10 schema::

    (ref, t, component, kind, pid, epoch, depvec, parent_ref, detail)

``ref`` is a monotonically increasing event id, never reused; it keeps
counting across ring overflow, so a dangling ``parent_ref`` below the
oldest retained event tells the explain engine exactly how much
history was shed.  ``parent_ref`` is the causal link: callers either
pass an explicit ``parent`` or name a *chain* -- a per-key cursor
(``"ctrl"`` for the control plane, ``"pid:<N>"`` for one packet's
journey) that threads consecutive events on that key into a linear
causal chain :mod:`repro.flight.explain` can walk backwards.

Determinism: the recorder touches no RNG and schedules nothing;
events are a pure function of the simulation, so two runs of one seed
produce byte-identical dumps.  Disabled (the default:
the bundle is :data:`~repro.telemetry.NULL_TELEMETRY`), a data-path
event costs its site one ``telemetry.enabled`` test and no call --
fig5/fig13 stay bit-identical.

On an invariant violation or an :class:`UnrecoverableError` the
recorder *trips*: the full ring (plus the metric rows, when a telemetry
bundle is passed) is dumped to JSON at ``autodump_path`` -- the
artifact CI uploads and ``repro explain`` consumes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["FlightEvent", "FlightRecorder", "DUMP_VERSION"]

#: Schema version stamped into every dump (2: no ``timeline`` section;
#: timeline events are ring events, PROTOCOL.md §10.2).
DUMP_VERSION = 2

#: Default ring capacity: enough for several full soak schedules while
#: bounding a wedged run's memory to a few MB.
DEFAULT_CAPACITY = 65536


class FlightEvent:
    """One structured causal event (the §10 record)."""

    __slots__ = ("ref", "t", "component", "kind", "pid", "epoch",
                 "depvec", "parent_ref", "detail")

    def __init__(self, ref: int, t: float, component: str, kind: str,
                 pid: Optional[int] = None, epoch: Optional[int] = None,
                 depvec: Optional[Dict[int, int]] = None,
                 parent_ref: Optional[int] = None, detail: str = ""):
        self.ref = ref
        self.t = t
        self.component = component
        self.kind = kind
        self.pid = pid
        self.epoch = epoch
        self.depvec = depvec
        self.parent_ref = parent_ref
        self.detail = detail

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (compact: None fields are omitted)."""
        out: Dict[str, Any] = {"ref": self.ref, "t": self.t,
                               "component": self.component,
                               "kind": self.kind}
        if self.pid is not None:
            out["pid"] = self.pid
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.depvec is not None:
            out["depvec"] = {str(k): v for k, v in self.depvec.items()}
        if self.parent_ref is not None:
            out["parent_ref"] = self.parent_ref
        if self.detail:
            out["detail"] = self.detail
        return out

    def __repr__(self):
        who = f" pid={self.pid}" if self.pid is not None else ""
        return (f"<FlightEvent #{self.ref} [{self.t * 1e3:.3f}ms] "
                f"{self.component}/{self.kind}{who}>")


class FlightRecorder:
    """Bounded, deterministic ring buffer of causal events."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 autodump_path: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.autodump_path = autodump_path
        self._events: List[FlightEvent] = []
        #: First retained slot: the ring drops oldest-first by moving
        #: this cursor instead of paying O(n) list deletions per event.
        self._head = 0
        self._next_ref = 0
        self.dropped = 0
        #: Per-chain cursors: the last ref recorded on each causal chain.
        self._cursors: Dict[str, int] = {}
        #: Run context stamped into dumps (seed, chain config, ...).
        self.context: Dict[str, Any] = {}
        #: Reasons this recorder tripped (auto-dumped), in order.
        self.trips: List[str] = []
        self._dump_written: Optional[str] = None

    @property
    def events(self) -> List[FlightEvent]:
        """Retained events, oldest first."""
        if self._head:
            # Compact lazily so hot-path appends stay O(1) amortized.
            self._events = self._events[self._head:]
            self._head = 0
        return self._events

    def __len__(self) -> int:
        return len(self._events) - self._head

    # -- recording -----------------------------------------------------------

    def record(self, component: str, kind: str, t: float,
               pid: Optional[int] = None, epoch: Optional[int] = None,
               depvec: Optional[Dict[int, int]] = None, detail: str = "",
               chain: Optional[str] = None,
               parent: Optional[int] = None) -> int:
        """Append one event; returns its ``ref``.

        ``parent`` links the event explicitly; otherwise ``chain`` links
        it to the previous event recorded on the same chain key (and
        advances that chain's cursor to this event).
        """
        ref = self._next_ref
        self._next_ref += 1
        parent_ref = parent
        if parent_ref is None and chain is not None:
            parent_ref = self._cursors.get(chain)
        if chain is not None:
            self._cursors[chain] = ref
        if len(self._events) - self._head >= self.capacity:
            self.dropped += 1
            self._head += 1
            if self._head > self.capacity:
                self._events = self._events[self._head:]
                self._head = 0
        self._events.append(FlightEvent(
            ref=ref, t=t, component=component, kind=kind, pid=pid,
            epoch=epoch, depvec=dict(depvec) if depvec else None,
            parent_ref=parent_ref, detail=detail))
        return ref

    def set_context(self, **fields: Any) -> None:
        """Merge run-identifying fields (seed, chain config) into dumps."""
        self.context.update(fields)

    # -- dumping -------------------------------------------------------------

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [event.as_dict() for event in self.events]

    def dump(self, reason: str = "demand",
             telemetry=None) -> Dict[str, Any]:
        """The full post-mortem dump object (PROTOCOL.md §10).

        ``telemetry`` -- the run's bundle, when available -- embeds the
        metric rows so one file is self-contained for CI artifacts.
        """
        out: Dict[str, Any] = {
            "version": DUMP_VERSION,
            "reason": reason,
            "context": dict(self.context),
            "dropped": self.dropped,
            "next_ref": self._next_ref,
            "trips": list(self.trips),
            "events": self.as_dicts(),
        }
        out["metrics"] = ([] if telemetry is None else
                          [list(row) for row in telemetry.registry.rows()])
        return out

    def dump_json(self, path: str, reason: str = "demand",
                  telemetry=None) -> str:
        with open(path, "w") as handle:
            json.dump(self.dump(reason=reason, telemetry=telemetry), handle,
                      indent=1)
        return path

    def trip(self, reason: str, telemetry=None, *,
             t: float) -> Optional[str]:
        """An anomaly fired (invariant violation, unrecoverable error).

        Records a ``flight/trip`` event, and writes the auto-dump on the
        *first* trip (the ring then still holds the history that led
        here; later trips would only overwrite it with less context).
        Returns the dump path when one was written.
        """
        self.trips.append(reason)
        self.record("flight", "trip", t=t, detail=reason, chain="ctrl")
        if self.autodump_path is not None and self._dump_written is None:
            self._dump_written = self.dump_json(
                self.autodump_path, reason=reason, telemetry=telemetry)
            return self._dump_written
        return None

    def __repr__(self):
        return (f"<FlightRecorder {len(self)}/{self.capacity} events, "
                f"{self.dropped} dropped, {len(self.trips)} trips>")
