"""The enabled :class:`Telemetry` bundle (registry + tracer + timeline)."""

from __future__ import annotations

from typing import Dict, List, Optional

from .null import NULL_FLIGHT, NULL_PROFILER
from .registry import MetricRegistry
from .timeline import RecoveryTimeline
from .trace import PacketTracer

__all__ = ["Telemetry"]


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
