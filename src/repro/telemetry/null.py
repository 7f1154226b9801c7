"""Instrumentation switched off: every ``Null*`` class and its singleton.

The data path holds a :data:`NULL_TELEMETRY` (or one of its parts)
unless a run opts in, so this is the only instrumentation module a
default run imports.  It stays a stdlib-only leaf: the enabled
implementations (:mod:`.registry`, :mod:`.trace`, :mod:`.timeline`,
:mod:`repro.flight.recorder`, :mod:`repro.perf.profiler`) import *from*
here and re-export these same objects, never the other way round --
the type names in annotations below are strings, and only
``NullFlightRecorder.dump`` looks up the dump schema version when it is
called.  Every method is a no-op that touches no simulation state,
clock or RNG stream, so runs with instrumentation off are bit-identical
to an uninstrumented build.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

if TYPE_CHECKING:
    from ..flight.recorder import FlightEvent
    from .timeline import TimelineAttempt, TimelineEvent

__all__ = [
    "NULL_FLIGHT", "NULL_HISTOGRAM", "NULL_PROFILER", "NULL_REGISTRY",
    "NULL_TELEMETRY", "NULL_TIMELINE", "NULL_TRACER", "NullFlightRecorder",
    "NullProfiler", "NullRegistry", "NullTelemetry", "NullTimeline",
    "NullTracer",
]


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0

    def observe(self, value: float, t: float = 0.0) -> None:
        pass


NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Drops every registration; hands out the shared no-op histogram."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, read: Callable[[], int]) -> None:
        pass

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        pass

    def histogram(self, name: str, reservoir: int = 0) -> _NullHistogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, object]:
        return {}

    def rows(self) -> List[Tuple]:
        return []


NULL_REGISTRY = NullRegistry()


class NullTracer:
    """Telemetry-disabled tracer: samples nothing, stores nothing."""

    __slots__ = ()
    sample_every = 0
    dropped = 0
    events: List[Dict] = []

    enabled = False

    def wants(self, pid: int) -> bool:
        return False

    def instant(self, *args, **kwargs) -> None:
        pass

    def export(self, path: Optional[str] = None,
               extra_events: Optional[List[Dict]] = None) -> Dict:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}


NULL_TRACER = NullTracer()


class NullTimeline:
    """Telemetry-disabled timeline: records nothing."""

    __slots__ = ()
    events: List[TimelineEvent] = []

    enabled = False

    def attempts(self) -> List[TimelineAttempt]:
        return []

    def as_dicts(self) -> List[Dict]:
        return []

    def render(self) -> str:
        return ""


NULL_TIMELINE = NullTimeline()


class NullFlightRecorder:
    """Recording disabled: every surface is a shared no-op.

    Instrumented code caches ``telemetry.flight`` and guards argument
    construction with ``if flight.enabled:`` -- the disabled cost is
    one attribute read and a truth test, and results stay bit-identical
    to an uninstrumented build (the same contract as the NULL_*
    telemetry singletons).
    """

    __slots__ = ()
    capacity = 0
    dropped = 0
    context: Dict[str, Any] = {}
    trips: List[str] = []
    events: List[FlightEvent] = []

    enabled = False

    def __len__(self) -> int:
        return 0

    def record(self, component: str, kind: str, t: float,
               pid: Optional[int] = None, epoch: Optional[int] = None,
               depvec: Optional[Dict[int, int]] = None, detail: str = "",
               chain: Optional[str] = None,
               parent: Optional[int] = None) -> int:
        return -1

    def as_dicts(self) -> List[Dict[str, Any]]:
        return []

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


NULL_FLIGHT = NullFlightRecorder()


class NullProfiler:
    """Profiling disabled: a shared singleton whose ``enabled`` is False.

    Data-path hooks test ``enabled`` and never get here; the no-op
    methods remain for callers off the data path (reports).
    """

    __slots__ = ()

    enabled = False
    #: Read-only: every disabled component shares this one object, so
    #: a stray write must fail rather than leak into later runs.
    calls: Mapping[str, int] = MappingProxyType({})

    def count(self, stage: str, n: int = 1) -> None:
        pass

    def report(self, packets: int = 0) -> Dict[str, Dict[str, float]]:
        return {}


NULL_PROFILER = NullProfiler()


class NullTelemetry:
    """Telemetry disabled: every surface is a shared no-op singleton."""

    __slots__ = ()
    registry = NULL_REGISTRY
    tracer = NULL_TRACER
    timeline = NULL_TIMELINE
    flight = NULL_FLIGHT
    profiler = NULL_PROFILER

    enabled = False

    def emit(self, component: str, kind: str, positions: Sequence[int] = (),
             *, t: float, epoch: Optional[int] = None,
             detail: str = "") -> None:
        pass


NULL_TELEMETRY = NullTelemetry()
