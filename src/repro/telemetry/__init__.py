"""Chain-wide telemetry: metric registry, packet tracing, recovery timelines.

One :class:`Telemetry` object bundles the three observability surfaces
this reproduction exposes (PROTOCOL.md §7 documents the schema):

* :class:`MetricRegistry` -- named counters/gauges/histograms that the
  STM (lock waits, wounds, retries), the core data plane (piggyback
  bytes, pruning, buffer hold time, commit-vector lag), the network
  (control drops/dups/retries), and the orchestrator (detection and
  per-phase recovery latencies) register into.
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
default is :data:`NULL_TELEMETRY`, whose instruments are shared no-op
singletons -- instrumentation hooks then cost one no-op method call,
touch no simulation state, and leave results bit-identical to an
uninstrumented build.  Every ``NULL_*`` name resolves to
:mod:`.null`, a stdlib-only leaf, so a run with telemetry off loads
none of the enabled implementations.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "bundle": ("Telemetry",),
    "null": (
        "NULL_COUNTER", "NULL_FLIGHT", "NULL_GAUGE", "NULL_HISTOGRAM",
        "NULL_PROFILER", "NULL_REGISTRY", "NULL_TELEMETRY", "NULL_TIMELINE",
        "NULL_TRACER", "NullRegistry", "NullTelemetry", "NullTimeline",
        "NullTracer",
    ),
    "registry": ("Counter", "Gauge", "Histogram", "MetricRegistry"),
    "timeline": (
        "RecoveryTimeline", "TIMELINE_EVENT_KINDS", "TimelineAttempt",
        "TimelineEvent",
    ),
    "trace": ("PacketTracer", "SPAN_PHASES", "validate_chrome_trace"),
})
