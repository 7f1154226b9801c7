"""The enabled :class:`Telemetry` bundle and the one event routing table."""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from ..orchestration.journal import JOURNAL_STEPS
from .null import NULL_TELEMETRY
from .registry import MetricRegistry
from .trace import DEFAULT_MAX_EVENTS, PacketTracer

__all__ = ["EVENTS", "Route", "STAGES", "Telemetry"]


class Route(NamedTuple):
    """Where one event goes; ``None``/``False``: that sink never sees it.

    ``flight(t, positions, **fields)`` builds the detail of the event's
    own ``component/kind`` ring entry, on ``chain`` (``"pid"``: the
    packet's, when the event names one, which also samples its span;
    ``"ctrl"``, ``"slo"``, ``"brownout"``; or none).  ``span(tracer, t,
    pid, positions, **fields)`` writes span(s); ``histogram(telemetry,
    t, pid, **fields)`` observes; ``stage`` is counted once per event
    (``n`` times when given); ``timeline`` keeps it on the timeline.
    """

    flight: Optional[Callable[..., str]] = None
    chain: Optional[str] = "pid"
    span: Optional[Callable[..., None]] = None
    histogram: Optional[Callable[..., None]] = None
    stage: Optional[str] = None
    timeline: bool = False


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


def _positioned(t, positions, detail="", **_):
    """A control-plane event's ring detail: its own, then the positions
    it names, so ``repro explain`` can match them."""
    if not positions:
        return detail
    where = f"positions={list(positions)}"
    return f"{detail} {where}" if detail else where


#: A control-plane event in the ring, and one the recovery timeline
#: keeps too (PROTOCOL.md §7.3).
_CTRL = Route(flight=_positioned, chain="ctrl")
_TIMELINE = _CTRL._replace(timeline=True)


def _reconfig_ends(outcome: str) -> Route:
    """A reconfiguration's outcome, closing its ``reconfig:<kind>`` span."""
    return _TIMELINE._replace(
        span=lambda tracer, t, pid, op_id, op_kind, **_: tracer.end_async(
            op_id, f"reconfig:{op_kind}", "ctrl", t, tid=9998,
            outcome=outcome))


#: Every instrumented event (PROTOCOL.md §7, §10) and the sinks it
#: feeds: the data path in pipeline order, then the control plane.  Its
#: stage column, after the engine's own ``engine/dispatch``, is
#: :data:`STAGES`; its timeline column, ``TIMELINE_EVENT_KINDS``.
EVENTS: Dict[Tuple[str, str], Route] = {
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
    # -- the control plane, in typical firing order -----------------------
    ("chaos", "fault-injected"): _TIMELINE,
    ("orch", "suspected"): _TIMELINE,
    ("orch", "suspect-cleared"): _TIMELINE,
    ("orch", "silence-report"): _CTRL,
    ("orch", "corroborated"): _CTRL,
    ("orch", "confirmed"): _TIMELINE._replace(
        histogram=_observe("orch/detection_delay_s")),
    **{("recovery", kind): _TIMELINE for kind in (
        "initializing", "spawned", "fetching", "fetched", "rerouting",
        "committed", "abandoned")},
    ("recovery", "fetch-source"): _CTRL,
    # Recovery totals, registered where the orchestrator is built.
    ("orch", "recovered"): Route(histogram=_observe("orch/recovery_total_s")),
    ("orch", "phase"): Route(histogram=_observe("orch/phase_{phase}_s")),
    # Control-plane replication (PROTOCOL.md §9).  An epoch's
    # ``lead:m<i>`` span opens when its member is elected or resumes and
    # closes when it steps down.
    ("election", "campaign"): _CTRL,
    ("election", "elected"): _TIMELINE._replace(
        span=lambda tracer, t, pid, epoch, member, **_: tracer.begin_async(
            epoch, f"lead:m{member}", "ctrl", t, tid=9998, member=member)),
    ("election", "stepped-down"): _TIMELINE._replace(
        span=lambda tracer, t, pid, epoch, member, reason, **_:
            tracer.end_async(epoch, f"lead:m{member}", "ctrl", t, tid=9998,
                             reason=reason)),
    ("election", "leader-resumed"): _TIMELINE._replace(
        span=lambda tracer, t, pid, epoch, member, **_: tracer.begin_async(
            epoch, f"lead:m{member}", "ctrl", t, tid=9998, member=member,
            resumed=True)),
    **{("journal", step): _CTRL for step in JOURNAL_STEPS},  # write-ahead
    ("journal", "quorum"): Route(
        span=lambda tracer, t, pid, positions, epoch, step, member, acks, **_:
            tracer.instant(0, f"journal:{step}", "ctrl", t, tid=9998,
                           epoch=epoch, member=member, acks=acks,
                           positions=list(positions)), chain="ctrl"),
    ("fencing", "fenced"): _TIMELINE,
    ("fencing", "applied"): _CTRL,
    ("orch", "journal-replayed"): _TIMELINE,
    # Live reconfiguration phases (PROTOCOL.md §11); the attempt parser
    # matches on the component, so ``reconfig/committed`` never passes
    # for a §5.2 commit.  An operation's ``reconfig:<kind>`` span opens
    # with its first phase and closes with its outcome.
    ("reconfig", "preparing"): _TIMELINE._replace(
        span=lambda tracer, t, pid, op_id, op_kind, detail, **_:
            tracer.begin_async(op_id, f"reconfig:{op_kind}", "ctrl", t,
                               tid=9998, op=detail)),
    **{("reconfig", kind): _TIMELINE for kind in (
        "prepared", "draining", "quiesced", "switching")},
    ("reconfig", "committed"): _reconfig_ends("committed"),
    ("reconfig", "aborted"): _reconfig_ends("aborted"),
    # Overload actuators (PROTOCOL.md §12) and the soak auditor.
    ("slo", "breach"): _CTRL._replace(chain="slo"),
    **{("brownout", kind): _CTRL._replace(chain="brownout") for kind in (
        "enter", "escalate", "deescalate", "exit")},
    ("chaos", "violation"): _CTRL,
}

#: The perf stage taxonomy (PROTOCOL.md §13.1), in report order: the
#: engine's callback dispatch, then the table's stage column.
STAGES: Tuple[str, ...] = ("engine/dispatch",) + tuple(dict.fromkeys(
    route.stage for route in EVENTS.values() if route.stage))


class Telemetry:
    """The enabled bundle: registry + tracer + timeline."""

    enabled = True

    def __init__(self, sample_every: int = 1,
                 max_trace_events: Optional[int] = None, flight=None,
                 profiler=None):
        self.registry = MetricRegistry()
        self.tracer = PacketTracer(sample_every, DEFAULT_MAX_EVENTS
                                   if max_trace_events is None
                                   else max_trace_events)
        from .timeline import RecoveryTimeline  # it reads EVENTS
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
             *, t: float, pid: Optional[int] = None, **fields) -> None:
        """Record one event: the one write for every instrumented moment.

        The event goes where its :data:`EVENTS` row says (an unknown one
        raises ``ValueError`` first); a detail string or span arguments
        are built only for a sink that is recording.  The timeline keeps
        an event's ``epoch`` and ``detail`` fields (PROTOCOL.md §7.3).
        """
        route = EVENTS.get((component, kind))
        if route is None:
            raise ValueError(f"unknown event {component}/{kind}")
        if route.stage is not None and self.profiler.enabled:
            self.profiler.count(route.stage, fields.get("n", 1))
        if route.timeline:
            self.timeline.record(component, kind, positions, t=t,
                                 epoch=fields.get("epoch"),
                                 detail=fields.get("detail", ""))
        if route.histogram is not None:
            route.histogram(self, t, pid, **fields)
        if route.span is not None and (
                route.chain != "pid"
                or pid is not None and self.tracer.wants(pid)):
            route.span(self.tracer, t, pid, positions=positions, **fields)
        if route.flight is not None and self.flight.enabled:
            chain = route.chain
            if chain == "pid":
                chain = None if pid is None else f"pid:{pid}"
            self.flight.record(component, kind, t=t, pid=pid,
                               epoch=fields.get("epoch"),
                               depvec=fields.get("depvec"),
                               detail=route.flight(t, positions=positions,
                                                   **fields),
                               chain=chain)

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
