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

Pass a ``Telemetry`` to :class:`~repro.core.FTCChain` and
:class:`~repro.orchestration.Orchestrator` to enable collection; the
default is :data:`NULL_TELEMETRY`, whose instruments are shared no-op
singletons -- instrumentation hooks then cost one no-op method call,
touch no simulation state, and leave results bit-identical to an
uninstrumented build.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
)
from .timeline import (
    NULL_TIMELINE,
    NullTimeline,
    RecoveryTimeline,
    TIMELINE_EVENT_KINDS,
    TimelineAttempt,
    TimelineEvent,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    PacketTracer,
    SPAN_PHASES,
    validate_chrome_trace,
)
from ..flight.recorder import NULL_FLIGHT  # no cycle: recorder is leaf-only
from ..perf.profiler import NULL_PROFILER  # no cycle: profiler is leaf-only

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_COUNTER",
    "NULL_FLIGHT",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TIMELINE",
    "NULL_TRACER",
    "NullRegistry",
    "NullTelemetry",
    "NullTimeline",
    "NullTracer",
    "PacketTracer",
    "RecoveryTimeline",
    "SPAN_PHASES",
    "TIMELINE_EVENT_KINDS",
    "Telemetry",
    "TimelineAttempt",
    "TimelineEvent",
    "validate_chrome_trace",
]


class Telemetry:
    """The enabled bundle: registry + tracer + timeline."""

    enabled = True

    def __init__(self, sample_every: int = 1,
                 max_trace_events: Optional[int] = None, flight=None,
                 profiler=None):
        self.registry = MetricRegistry()
        if max_trace_events is None:
            self.tracer = PacketTracer(sample_every=sample_every)
        else:
            self.tracer = PacketTracer(sample_every=sample_every,
                                       max_events=max_trace_events)
        self.timeline = RecoveryTimeline()
        #: Causal flight recorder (PR 5); NULL_FLIGHT unless a run opts
        #: in with ``--flight`` / ``SoakConfig.flight``.
        self.flight = flight if flight is not None else NULL_FLIGHT
        #: Per-stage cost attribution (PROTOCOL.md §13); NULL_PROFILER
        #: unless a perf run passes a StageProfiler.
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def start_window(self, now: float) -> None:
        """Cut histogram warm-up windows (mirrors the meters' cut)."""
        self.registry.start_window(now)

    def summary_table(self) -> str:
        """The post-run "top" text summary (``format_table``-based)."""
        from ..metrics.reporting import format_table
        rows = self.registry.rows()
        if not rows:
            return "telemetry: no metrics recorded"
        table = format_table(
            ["metric", "type", "count/value", "mean", "p50", "p99", "max"],
            rows, title="telemetry summary")
        traced = len(self.tracer.events)
        tail = (f"trace: {traced} span events recorded "
                f"(sampling 1/{self.tracer.sample_every}"
                f"{f', {self.tracer.dropped} dropped at cap' if self.tracer.dropped else ''})")
        return f"{table}\n{tail}"

    def export_chrome(self, path: Optional[str] = None,
                      include_timeline: bool = True) -> Dict:
        """Chrome ``trace_event`` JSON (spans + timeline instants)."""
        extra: List[Dict] = []
        if include_timeline:
            extra = self.timeline.chrome_events()
        return self.tracer.export(path, extra_events=extra)


class NullTelemetry:
    """Telemetry disabled: every surface is a shared no-op singleton."""

    __slots__ = ()
    registry = NULL_REGISTRY
    tracer = NULL_TRACER
    timeline = NULL_TIMELINE
    flight = NULL_FLIGHT
    profiler = NULL_PROFILER

    enabled = False

    def start_window(self, now: float) -> None:
        pass

    def summary_table(self) -> str:
        return ""

    def export_chrome(self, path: Optional[str] = None,
                      include_timeline: bool = True) -> Dict:
        return self.tracer.export(path)


NULL_TELEMETRY = NullTelemetry()
