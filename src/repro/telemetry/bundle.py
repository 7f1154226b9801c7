"""The enabled :class:`Telemetry` bundle and the data-path routing table."""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .null import NULL_TELEMETRY
from .registry import MetricRegistry
from .timeline import RecoveryTimeline
from .trace import PacketTracer

__all__ = ["DATA_PATH", "Route", "STAGES", "Telemetry"]


class Route(NamedTuple):
    """Where one data-path event goes; ``None``: that sink never sees it.

    ``flight(t, **fields)`` builds the detail of the event's own
    ``component/kind`` ring entry, on ``chain`` (``"pid"``: the packet's,
    when the event names one; ``"ctrl"``; or none).  ``span(tracer, t,
    pid, **fields)`` writes a sampled packet's span(s);
    ``histogram(telemetry, t, pid, **fields)`` observes; ``stage`` is
    counted once per event (``n`` times when given).
    """

    flight: Optional[Callable[..., str]] = None
    chain: Optional[str] = "pid"
    span: Optional[Callable[..., None]] = None
    histogram: Optional[Callable[..., None]] = None
    stage: Optional[str] = None


def _observe(name: str) -> Callable[..., None]:
    """Observe the event's ``value`` into histogram ``name`` (formatted
    with the event's fields), registered where its component was built."""
    def observe(telemetry, t, pid, value, **fields):
        telemetry.registry.histograms[name.format(**fields)].observe(value, t)
    return observe


def _hold_begins(telemetry, t, pid, name, **_):
    telemetry._held_at[name, pid] = t


def _hold_ends(telemetry, t, pid, name, held, **_):
    start = telemetry._held_at.pop((name, pid), None)
    telemetry.registry.histograms[f"{name}/hold_time_s"].observe(
        t - start if held else 0.0, t)


def _release_span(tracer, t, pid, held, **_):
    if held:
        tracer.end_async(pid, "buffer-hold", "buffer", t)
    tracer.instant(pid, "release", "buffer", t)


#: Every data-path event (PROTOCOL.md §10) and the sinks it feeds, in
#: pipeline order.  Its stage column, after the engine's own
#: ``engine/dispatch``, is :data:`STAGES`.
DATA_PATH: Dict[Tuple[str, str], Route] = {
    ("admission", "check"): Route(stage="admission/check"),
    ("admission", "shed"): Route(
        flight=lambda t, cls, reason, **_: f"class {cls}: {reason}"),
    ("forwarder", "attach"): Route(stage="piggyback/append"),
    ("depvec", "merge"): Route(stage="depvec/merge"),
    ("piggyback", "apply"): Route(
        flight=lambda t, mbox, position, **_: f"{mbox} @p{position}",
        span=lambda tracer, t, pid, mbox, position, **_: tracer.instant(
            pid, f"replicate@p{position}", "repl", t, tid=position,
            mbox=mbox)),
    ("piggyback", "trim"): Route(stage="piggyback/trim"),
    ("stm", "partition-wait"): Route(histogram=_observe("{name}/lock_wait_s")),
    ("stm", "lock-wait"): Route(
        flight=lambda t, name, start, partitions, **_: (
            f"{name} waited {(t - start) * 1e6:.2f}us "
            f"for partitions {sorted(partitions)}"),
        span=lambda tracer, t, pid, name, start, tid, partitions, **_:
            tracer.complete(pid, "lock-acquire", "stm", start, t, tid=tid,
                            mbox=name, partitions=sorted(partitions))),
    ("stm", "wound"): Route(
        flight=lambda t, name, ts, retries, **_:
            f"{name} ts={ts} retry {retries}",
        span=lambda tracer, t, pid, name, tid, **_: tracer.instant(
            pid, "wounded", "stm", t, tid=tid, mbox=name)),
    ("stm", "commit"): Route(
        flight=lambda t, name, partitions, retries, htm, **_: (
            f"{name} partitions={sorted(partitions)} retries={retries}"
            f"{' htm' if htm else ''}"),
        span=lambda tracer, t, pid, name, start, tid, retries, htm, **_:
            tracer.complete(pid, "critical-section", "stm", start, t,
                            tid=tid, mbox=name, retries=retries, htm=htm),
        stage="stm/commit"),
    ("piggyback", "append"): Route(
        flight=lambda t, mbox, updates, **_: f"{mbox} {updates} update(s)"),
    ("mbox", "exit"): Route(
        span=lambda tracer, t, pid, start, position, name, dropped, **_:
            tracer.complete(pid, f"p{position}:{name}", "mbox", start, t,
                            tid=position, dropped=dropped)),
    ("piggyback", "size"): Route(histogram=_observe("piggyback/bytes")),
    ("piggyback", "requeue"): Route(
        flight=lambda t, **_: ("propagating packet refused by full NIC "
                               "queue; logs re-absorbed for retry"),
        chain=None),
    ("channel", "transmit"): Route(histogram=_observe("channel/inflight")),
    ("channel", "frame"): Route(stage="channel/frame"),
    ("channel", "retransmit"): Route(
        flight=lambda t, name, seq, attempt, **_:
            f"{name} seq {seq} attempt {attempt}"),
    ("channel", "nack"): Route(
        flight=lambda t, name, missing, **_:
            f"{name} missing seqs {list(missing)}",
        chain=None),
    ("channel", "reorder-drop"): Route(
        flight=lambda t, name, why, seq, **_: (
            f"{name} {why}; seq {seq} re-offered by sender RTO"),
        chain=None),
    ("channel", "ack"): Route(stage="channel/ack"),
    ("channel", "reset"): Route(
        flight=lambda t, name, from_epoch, unacked, parked, **_: (
            f"{name} epoch {from_epoch} -> {from_epoch + 1}: "
            f"{unacked} unacked, {parked} parked discarded"),
        chain="ctrl"),
    ("nic", "tail-drop"): Route(
        flight=lambda t, name, depth, **_: f"{name} queue full ({depth})"),
    ("link", "impair-drop"): Route(
        flight=lambda t, name, **_: f"{name} seeded loss", chain=None),
    ("net", "net-to-failed"): Route(
        flight=lambda t, **_: "dropped at net-to-failed", chain=None),
    ("net", "net-corrupt"): Route(
        flight=lambda t, **_: "dropped at net-corrupt", chain=None),
    ("buffer", "arrive"): Route(stage="buffer/hold"),
    ("buffer", "dup-drop"): Route(
        flight=lambda t, **_: "duplicate delivery absorbed at egress"),
    ("buffer", "shed"): Route(
        flight=lambda t, bound, **_: f"held set full ({bound})"),
    ("buffer", "hold"): Route(
        flight=lambda t, mboxes, **_:
            f"awaiting commits from {sorted(mboxes)}",
        span=lambda tracer, t, pid, mboxes, **_: tracer.begin_async(
            pid, "buffer-hold", "buffer", t, mboxes=sorted(mboxes)),
        histogram=_hold_begins),
    ("buffer", "release"): Route(
        flight=lambda t, **_: "all dependency vectors covered f+1 times",
        span=_release_span, histogram=_hold_ends),
    ("buffer", "handled"): Route(stage="buffer/release"),
}

#: The perf stage taxonomy (PROTOCOL.md §13.1), in report order: the
#: engine's callback dispatch, then the table's stage column.
STAGES: Tuple[str, ...] = ("engine/dispatch",) + tuple(dict.fromkeys(
    route.stage for route in DATA_PATH.values() if route.stage))


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
        #: Causal flight recorder; off unless a run opts in with
        #: ``--flight`` / ``run_soak(flight_dir=...)``.
        self.flight = flight if flight is not None else NULL_TELEMETRY
        #: Per-stage call counts (PROTOCOL.md §13); off unless a perf
        #: run passes a StageProfiler.
        self.profiler = profiler if profiler is not None else NULL_TELEMETRY
        #: ``(buffer, pid) -> t`` of every packet in a buffer's held set:
        #: its release observes the hold time.  A packet a failure
        #: discards (``Buffer.discard_held``) leaves its entry behind.
        self._held_at: Dict[Tuple[str, int], float] = {}

    def emit(self, component: str, kind: str, positions: Sequence[int] = (),
             *, t: float, epoch: Optional[int] = None, detail: str = "",
             pid: Optional[int] = None, **fields) -> None:
        """Record one event: the one write for every instrumented moment.

        A data-path event (a :data:`DATA_PATH` key) goes where its route
        says; its detail string and span arguments are built only when
        a sink that keeps them is recording.

        Any other event is a control-plane event the
        :class:`RecoveryTimeline` keeps (PROTOCOL.md §7.3).  A recording
        flight ring gets the same event on the ``ctrl`` chain, its
        detail ending in ``positions=[...]`` so ``repro explain`` can
        match positions; the Chrome export turns the timeline into
        instants on tid 9998.
        """
        if (component, kind) in DATA_PATH:
            route = DATA_PATH[component, kind]
            if route.stage is not None and self.profiler.enabled:
                self.profiler.count(route.stage, fields.get("n", 1))
            if route.histogram is not None:
                route.histogram(self, t, pid, **fields)
            if (route.span is not None and pid is not None
                    and self.tracer.wants(pid)):
                route.span(self.tracer, t, pid, **fields)
            if route.flight is not None and self.flight.enabled:
                chain = route.chain
                if chain == "pid":
                    chain = None if pid is None else f"pid:{pid}"
                self.flight.record(component, kind, t=t, pid=pid,
                                   depvec=fields.get("depvec"),
                                   detail=route.flight(t, **fields),
                                   chain=chain)
            return
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
