"""Per-packet transaction tracing with Chrome ``trace_event`` export.

A :class:`PacketTracer` records *span events* -- enter/exit middlebox,
lock acquire, critical section, replicate, buffer-hold, release --
keyed by packet id.  Sampling is deterministic (``pid % sample_every
== 0``) so traced runs reproduce exactly, and a hard event cap bounds
memory under soak load.  Timestamps are virtual-time seconds at record
time and microseconds in the export, which is the unit
``chrome://tracing`` / Perfetto expect.

Export format (documented in PROTOCOL.md §7): the JSON object form of
the Chrome Trace Event spec --

* top level: ``{"traceEvents": [...], "displayTimeUnit": "ms"}``
* every event: ``name`` (str), ``cat`` (str), ``ph`` (one of ``X i b e
  M``), ``ts`` (µs, number), ``pid`` (the *packet* id; Chrome's
  "process" lane), ``tid`` (the chain position / thread lane)
* ``X`` (complete) events add ``dur`` (µs, >= 0)
* ``b``/``e`` (async begin/end) events add ``id``
* ``M`` (metadata) events name the pid/tid lanes
* ``C`` (counter) events carry an ``args`` object of numeric series
  values (rendered as stacked counter tracks by the viewer)
* optional ``args`` must be a JSON object

:func:`validate_chrome_trace` checks exactly this schema; CI runs it
against a fixed-seed export on every push.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["PacketTracer", "validate_chrome_trace", "SPAN_PHASES"]

#: Phases a trace event may carry (subset of the Chrome spec we emit).
SPAN_PHASES = ("X", "i", "b", "e", "M", "C")

#: Default hard cap on retained events (soak safety).
DEFAULT_MAX_EVENTS = 200_000


class PacketTracer:
    """Records sampled per-packet span events in virtual time."""

    enabled = True

    def __init__(self, sample_every: int = 1,
                 max_events: int = DEFAULT_MAX_EVENTS):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.max_events = max_events
        self.events: List[Dict] = []
        self.dropped = 0
        self._thread_names: Dict[int, str] = {}

    # -- sampling ------------------------------------------------------------

    def wants(self, pid: int) -> bool:
        """Deterministic sampling decision for one packet id.

        ``max_events=0`` disables span sampling outright (metrics and
        timelines still collect) -- nothing could be retained anyway.
        """
        return self.max_events > 0 and pid % self.sample_every == 0

    # -- recording -----------------------------------------------------------

    def _emit(self, event: Dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def complete(self, pid: int, name: str, cat: str,
                 start_s: float, end_s: float, tid: int = 0, **args) -> None:
        """A span with known start and end (Chrome ``X`` event)."""
        self._emit({"name": name, "cat": cat, "ph": "X",
                    "ts": start_s * 1e6, "dur": max(0.0, end_s - start_s) * 1e6,
                    "pid": pid, "tid": tid, "args": args})

    def instant(self, pid: int, name: str, cat: str, t_s: float,
                tid: int = 0, **args) -> None:
        """A point-in-time marker (Chrome ``i`` event)."""
        self._emit({"name": name, "cat": cat, "ph": "i", "ts": t_s * 1e6,
                    "pid": pid, "tid": tid, "s": "t", "args": args})

    def begin_async(self, pid: int, name: str, cat: str, t_s: float,
                    tid: int = 0, **args) -> None:
        """Open an async span (overlapping holds; Chrome ``b`` event)."""
        self._emit({"name": name, "cat": cat, "ph": "b", "ts": t_s * 1e6,
                    "pid": pid, "tid": tid, "id": pid, "args": args})

    def end_async(self, pid: int, name: str, cat: str, t_s: float,
                  tid: int = 0, **args) -> None:
        self._emit({"name": name, "cat": cat, "ph": "e", "ts": t_s * 1e6,
                    "pid": pid, "tid": tid, "id": pid, "args": args})

    def counter(self, name: str, cat: str, t_s: float, tid: int = 0,
                **values: float) -> None:
        """A sampled counter point (Chrome ``C`` event).

        ``values`` become the event's ``args`` -- each key renders as
        one series on the counter track.  Counter events live on
        ``pid 0`` (they describe the system, not a packet).
        """
        self._emit({"name": name, "cat": cat, "ph": "C", "ts": t_s * 1e6,
                    "pid": 0, "tid": tid, "args": dict(values)})

    def set_thread_name(self, tid: int, name: str) -> None:
        """Label a ``tid`` lane (chain position) in the viewer."""
        self._thread_names[tid] = name

    # -- export ----------------------------------------------------------------

    def chrome_events(self) -> List[Dict]:
        """All events plus lane-naming metadata, ready for export."""
        meta = [{"name": "thread_name", "cat": "__metadata", "ph": "M",
                 "ts": 0, "pid": 0, "tid": tid, "args": {"name": label}}
                for tid, label in sorted(self._thread_names.items())]
        return meta + list(self.events)

    def export(self, path: Optional[str] = None,
               extra_events: Optional[List[Dict]] = None) -> Dict:
        """The Chrome trace object; written to ``path`` when given."""
        trace = {
            "traceEvents": self.chrome_events() + list(extra_events or []),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.telemetry",
                "sample_every": self.sample_every,
                "dropped_events": self.dropped,
            },
        }
        if path is not None:
            with open(path, "w") as handle:
                json.dump(trace, handle)
        return trace


def validate_chrome_trace(trace: object) -> List[str]:
    """Check an export against the documented schema; returns problems.

    An empty list means the trace is valid.  This is the schema CI
    asserts on the fixed-seed smoke artifact.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["top level is not an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (("name", str), ("cat", str), ("ph", str)):
            if not isinstance(event.get(key), kinds):
                problems.append(f"{where}: missing/invalid {key!r}")
        phase = event.get("ph")
        if phase not in SPAN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"{where}: missing/invalid {key!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if phase in ("b", "e") and "id" not in event:
            problems.append(f"{where}: async event needs id")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args is not an object")
        if phase == "C":
            series = event.get("args")
            if not isinstance(series, dict) or not series:
                problems.append(
                    f"{where}: C event needs a non-empty args object")
            elif not all(isinstance(v, (int, float))
                         for v in series.values()):
                problems.append(f"{where}: C event args must be numeric")
    return problems
