"""Chain-wide telemetry: metric registry, packet tracing, recovery timelines.

One :class:`Telemetry` object bundles the three observability surfaces
this reproduction exposes (PROTOCOL.md §7 documents the schema):

* :class:`MetricRegistry` -- named counters and gauges, each read from
  the count its component already keeps when a report asks, and
  histograms (lock waits, piggyback bytes, buffer hold time, detection
  and per-phase recovery latencies) pushed as they happen.
* :class:`PacketTracer` -- sampled per-packet span events exported as
  Chrome ``trace_event`` JSON (open in ``chrome://tracing``/Perfetto).
* :class:`RecoveryTimeline` -- chaos + orchestrator events stitched
  into structured per-attempt phase durations (consumed by Fig 13 and
  the soak auditor).

A control-plane event is written once, by :meth:`Telemetry.emit`: it
lands on the timeline, in the flight ring when one is recording, and
in the Chrome export as an instant on the control-plane track
(``TIMELINE_EVENT_KINDS`` lists every ``(component, kind)``).

Pass a ``Telemetry`` to :class:`~repro.core.FTCChain` and
:class:`~repro.orchestration.Orchestrator` to enable collection; the
default is :data:`NULL_TELEMETRY`, which drops every counter and gauge
registration and hands out shared no-op singletons -- counters and
gauges then cost nothing on the hot path, histogram and tracer hooks
one no-op method call or an ``enabled`` test, nothing touches
simulation state, and results stay bit-identical to an uninstrumented
build.  Every ``NULL_*`` name resolves to
:mod:`.null`, a stdlib-only leaf, so a run with telemetry off loads
none of the enabled implementations.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "bundle": ("Telemetry",),
    "null": (
        "NULL_FLIGHT", "NULL_HISTOGRAM", "NULL_PROFILER", "NULL_REGISTRY",
        "NULL_TELEMETRY", "NULL_TIMELINE", "NULL_TRACER", "NullRegistry",
        "NullTelemetry", "NullTimeline", "NullTracer",
    ),
    "registry": ("Histogram", "MetricRegistry"),
    "timeline": (
        "RecoveryTimeline", "TIMELINE_EVENT_KINDS", "TimelineAttempt",
        "TimelineEvent",
    ),
    "trace": ("PacketTracer", "SPAN_PHASES", "validate_chrome_trace"),
})
