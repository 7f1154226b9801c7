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
histograms with the registry, and a flight ring may be tripped.  Every
event goes through ``emit``: a data-path hook tests
``telemetry.enabled`` and, with telemetry off, calls nothing here; a
control-plane event calls the no-op ``emit``.  Nothing reads a part
back: a report reads an enabled bundle, or tests ``enabled`` first.
Every method is a no-op that touches no simulation state, clock or RNG
stream, and ``trips`` is an empty tuple (one object serves every
disabled component of every run), so runs with instrumentation off are
bit-identical to an uninstrumented build.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["NULL_TELEMETRY", "NullTelemetry"]


class NullTelemetry:
    """Telemetry disabled: registry, tracer, timeline, flight recorder,
    profiler and histogram in one stateless no-op object."""

    __slots__ = ()

    enabled = False
    trips = ()

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

    # -- flight recorder -----------------------------------------------------

    def trip(self, reason: str, telemetry=None,
             t: Optional[float] = None) -> Optional[str]:
        return None


NULL_TELEMETRY = NullTelemetry()
