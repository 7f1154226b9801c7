"""The enabled :class:`Telemetry` bundle (registry + tracer + timeline)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

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
        #: in with ``--flight`` / ``run_soak(flight_dir=...)``.
        self.flight = flight if flight is not None else NULL_FLIGHT
        #: Per-stage call counts (PROTOCOL.md §13); NULL_PROFILER
        #: unless a perf run passes a StageProfiler.
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def emit(self, component: str, kind: str, positions: Sequence[int] = (),
             *, t: float, epoch: Optional[int] = None,
             detail: str = "") -> None:
        """Record one control-plane event: the timeline, and the flight ring.

        The one write for every event the :class:`RecoveryTimeline`
        keeps (PROTOCOL.md §7.3).  A recording flight ring gets the same
        event on the ``ctrl`` chain, its detail ending in
        ``positions=[...]`` so ``repro explain`` can match positions;
        the Chrome export turns the timeline into instants on tid 9998.
        """
        self.timeline.record(component, kind, positions, t=t, epoch=epoch,
                             detail=detail)
        if self.flight.enabled:
            if positions:
                where = f"positions={list(positions)}"
                detail = f"{detail} {where}" if detail else where
            self.flight.record(component, kind, t=t, epoch=epoch,
                               detail=detail, chain="ctrl")

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

    def export_chrome(self, path: Optional[str] = None) -> Dict:
        """Chrome ``trace_event`` JSON (spans + timeline instants)."""
        return self.tracer.export(path,
                                  extra_events=self.timeline.chrome_events())
