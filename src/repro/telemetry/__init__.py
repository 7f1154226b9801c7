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

Every event is written once, by :meth:`Telemetry.emit`, and routed by
one table, :data:`.bundle.EVENTS`, which lists every ``(component,
kind)`` with its flight detail and chain, tracer span, histogram, perf
stage and timeline column.  A data-path site makes one call behind one
``if telemetry.enabled:`` test; a control-plane site makes one call.
A timeline event lands on the timeline, in the flight ring when one is
recording, and in the Chrome export as an instant on the control-plane
track (``TIMELINE_EVENT_KINDS`` is read from the timeline column).

Pass a ``Telemetry`` to :class:`~repro.core.FTCChain` and
:class:`~repro.orchestration.Orchestrator` to enable collection; the
default is :data:`NULL_TELEMETRY`, one no-op object that is every part
of a disabled bundle: it drops every counter and gauge registration,
a data-path site costs one attribute test and makes no call, nothing
touches simulation state, and results stay bit-identical to an
uninstrumented build.  It lives in :mod:`.null`, a stdlib-only leaf,
so a run with telemetry off loads none of the enabled
implementations.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "bundle": ("Telemetry",),
    "null": ("NULL_TELEMETRY", "NullTelemetry"),
    "registry": ("Histogram", "MetricRegistry"),
    "timeline": (
        "RecoveryTimeline", "TIMELINE_EVENT_KINDS", "TimelineAttempt",
        "TimelineEvent",
    ),
    "trace": ("PacketTracer", "SPAN_PHASES", "validate_chrome_trace"),
})
