"""Instrumentation switched off: one class, one shared object.

Every component holds :data:`NULL_TELEMETRY` unless a run opts in, so
this is the only instrumentation module a default run imports.  It
stays a stdlib-only leaf: the enabled implementations import nothing
from here but this object (the one default for every part of a
:class:`~repro.telemetry.Telemetry`), and the routing table of events
lives on the enabled side.

The object is every part of a disabled bundle at once -- its
``registry``, ``tracer``, ``timeline``, ``flight`` and ``profiler`` are
itself -- because components still register counters, gauges and
histograms with the registry, a flight ring may be tripped, and
reports read the parts back.  Every event goes through ``emit``: a
data-path hook tests ``telemetry.enabled`` and, with telemetry off,
calls nothing here; a control-plane event calls the no-op ``emit``.
Every method is a no-op that touches no simulation state, clock or RNG
stream, and every container it shows is empty and read-only (one
object serves every disabled component of every run), so runs with
instrumentation off are bit-identical to an uninstrumented build.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["NULL_TELEMETRY", "NullTelemetry"]


class NullTelemetry:
    """Telemetry disabled: registry, tracer, timeline, flight recorder,
    profiler and histogram in one stateless no-op object."""

    __slots__ = ()

    enabled = False
    events = trips = ()
    calls: Mapping[str, int] = MappingProxyType({})

    @property
    def registry(self) -> "NullTelemetry":
        return self

    tracer = timeline = flight = profiler = registry

    # -- the bundle ----------------------------------------------------------

    def emit(self, component: str, kind: str, positions=(), **fields) -> None:
        pass

    # -- registry and histogram ---------------------------------------------

    def counter(self, name: str, read) -> None:
        pass

    def gauge(self, name: str, read) -> None:
        pass

    def histogram(self, name: str, reservoir: int = 0) -> "NullTelemetry":
        return self

    def snapshot(self) -> Dict[str, object]:
        return {}

    def rows(self) -> List[tuple]:
        return []

    # -- tracer, timeline and flight recorder --------------------------------

    def wants(self, pid: int) -> bool:
        return False

    def export(self, path: Optional[str] = None,
               extra_events: Optional[List[Dict]] = None) -> Dict:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}

    def attempts(self) -> list:
        return []

    def render(self) -> str:
        return ""

    def as_dicts(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def record(self, *args, **kwargs) -> int:
        return -1

    def dump(self, reason: str = "demand", telemetry=None) -> Dict[str, Any]:
        from ..flight.recorder import DUMP_VERSION
        return {"version": DUMP_VERSION, "reason": reason, "context": {},
                "dropped": 0, "next_ref": 0, "trips": [], "events": [],
                "metrics": []}

    def dump_json(self, path: str, reason: str = "demand",
                  telemetry=None) -> str:
        raise RuntimeError("flight recording is disabled; nothing to dump")

    def trip(self, reason: str, telemetry=None,
             t: Optional[float] = None) -> Optional[str]:
        return None

    # -- profiler ------------------------------------------------------------

    def count(self, stage: str, n: int = 1) -> None:
        pass

    def report(self, packets: int = 0) -> Dict[str, Dict[str, float]]:
        return {}


NULL_TELEMETRY = NullTelemetry()
