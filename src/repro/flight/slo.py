"""SLO watchdog: windowed objectives against declarative thresholds.

A :class:`SLOWatchdog` periodically evaluates a set of
:class:`SLOObjective` thresholds against *probes* -- zero-argument
callables returning the current value of a service-level indicator
(p99 latency, egress goodput, detection/recovery time, retransmit
rate) or ``None`` while no data exists.  Each breach becomes an
:class:`SLOBreach`, a ``slo/breach`` flight event, and an
``slo/breaches`` counter increment; ``repro report`` aggregates them
into the run report.

Probes own their windowing: rate-style indicators (goodput,
retransmit rate) are closures that difference their source counters
between watchdog ticks, so the watchdog itself stays a dumb evaluator
and determinism is trivial (evaluation rides ``schedule_callback`` at
a fixed cadence and mutates no simulation state).

Objectives are declarative and parseable: ``p99_latency_us<=250`` --
the grammar the CLI's ``--slo`` flag accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["SLOObjective", "SLOBreach", "SLOWatchdog", "parse_slo_spec",
           "run_probes", "DEFAULT_EVAL_INTERVAL_S"]

#: Watchdog evaluation cadence (virtual seconds).
DEFAULT_EVAL_INTERVAL_S = 2e-3

_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
}


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective: ``indicator op threshold``."""

    indicator: str
    op: str
    threshold: float

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown SLO operator {self.op!r} "
                             f"(use <= or >=)")

    def met_by(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def __str__(self):
        return f"{self.indicator}{self.op}{self.threshold:g}"


@dataclass(frozen=True)
class SLOBreach:
    """One evaluation tick where an objective was violated."""

    objective: SLOObjective
    observed: float
    t: float

    def __str__(self):
        return (f"[{self.t * 1e3:.3f}ms] SLO breach: "
                f"{self.objective} (observed {self.observed:g})")


def parse_slo_spec(text: str) -> List[SLOObjective]:
    """Parse ``indicator<=value,indicator>=value,...`` (CLI ``--slo``)."""
    objectives: List[SLOObjective] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        for op in ("<=", ">="):
            if op in item:
                indicator, _, threshold = item.partition(op)
                try:
                    value = float(threshold)
                except ValueError:
                    raise ValueError(f"bad SLO threshold in {item!r}")
                if not indicator.strip():
                    raise ValueError(f"bad SLO indicator in {item!r}")
                objectives.append(SLOObjective(indicator.strip(), op, value))
                break
        else:
            raise ValueError(
                f"bad SLO objective {item!r} (want indicator<=value "
                f"or indicator>=value)")
    if not objectives:
        raise ValueError("empty SLO spec")
    return objectives


class SLOWatchdog:
    """Evaluates objectives every ``interval_s`` of virtual time
    (:data:`DEFAULT_EVAL_INTERVAL_S`; brownout stretches it)."""

    def __init__(self, sim, objectives: List[SLOObjective],
                 probes: Dict[str, Callable[[], Optional[float]]],
                 telemetry=None):
        from ..telemetry import NULL_TELEMETRY
        self.sim = sim
        self.objectives = list(objectives)
        self.probes = dict(probes)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.interval_s = DEFAULT_EVAL_INTERVAL_S
        self.breaches: List[SLOBreach] = []
        #: Actuator hook (PROTOCOL.md §12.3): each callable receives
        #: the list of breaches every evaluation produced -- an empty
        #: list is a *clean* tick, which brownout hysteresis needs to
        #: see just as much as the breaches themselves.
        self.listeners: List[Callable[[List[SLOBreach]], None]] = []
        self.evaluations = 0
        #: Worst observed value per indicator (the report's column).
        self.worst: Dict[str, float] = {}
        registry = self.telemetry.registry
        registry.counter("slo/breaches", lambda: len(self.breaches))
        registry.counter("slo/evaluations", lambda: self.evaluations)
        self._stopped = False
        unknown = [o.indicator for o in self.objectives
                   if o.indicator not in self.probes]
        if unknown:
            raise ValueError(f"no probe for SLO indicator(s) {unknown}")

    def start(self) -> None:
        self.sim.schedule_callback(self.interval_s, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.evaluate()
        self.sim.schedule_callback(self.interval_s, self._tick)

    def evaluate(self) -> List[SLOBreach]:
        """One evaluation pass; returns the breaches it produced."""
        self.evaluations += 1
        now = self.sim.now
        new: List[SLOBreach] = []
        for objective in self.objectives:
            value = self.probes[objective.indicator]()
            if value is None:
                continue
            worst = self.worst.get(objective.indicator)
            if worst is None or (value > worst if objective.op == "<="
                                 else value < worst):
                self.worst[objective.indicator] = value
            if objective.met_by(value):
                continue
            breach = SLOBreach(objective=objective, observed=value, t=now)
            new.append(breach)
            self.breaches.append(breach)
            self.telemetry.emit("slo", "breach", t=now,
                                detail=f"{objective} observed={value:g}")
        for listener in self.listeners:
            listener(new)
        return new

    @property
    def ok(self) -> bool:
        return not self.breaches


def run_probes(egress, chain=None, orchestrator=None
               ) -> Dict[str, Callable[[], Optional[float]]]:
    """The standard probe set for a CLI run / soak schedule.

    Indicators (PROTOCOL.md §10.3):

    * ``p99_latency_us`` -- egress latency p99 over the sampler window;
    * ``goodput_pps`` -- released packets per virtual second since the
      previous watchdog tick (windowed by differencing);
    * ``detection_s`` / ``recovery_s`` -- the slowest detection and
      recovery seen so far (None until a failure happened);
    * ``retransmit_rate`` -- hop retransmissions per packet sent on the
      reliable channels since the previous tick.
    """
    state = {"released": 0, "t": None, "retx": 0, "sent": 0}

    def p99_latency_us() -> Optional[float]:
        sampler = egress.latency
        if len(sampler) == 0:
            return None
        return sampler.percentile_us(99)

    def goodput_pps() -> Optional[float]:
        released = egress.throughput.count
        now = egress.sim.now if hasattr(egress, "sim") else None
        last_t, last_released = state["t"], state["released"]
        state["t"], state["released"] = now, released
        if last_t is None or now is None or now <= last_t:
            return None
        return (released - last_released) / (now - last_t)

    probes: Dict[str, Callable[[], Optional[float]]] = {
        "p99_latency_us": p99_latency_us,
        "goodput_pps": goodput_pps,
    }

    if orchestrator is not None:
        def detection_s() -> Optional[float]:
            history = orchestrator.history
            if not history:
                return None
            return max(event.detection_delay_s for event in history)

        def recovery_s() -> Optional[float]:
            totals = [event.report.total_s for event in orchestrator.history
                      if event.report is not None]
            return max(totals) if totals else None

        probes["detection_s"] = detection_s
        probes["recovery_s"] = recovery_s

    if chain is not None:
        def retransmit_rate() -> Optional[float]:
            stats = chain.channel_stats()
            retx, sent = stats.get("retransmissions", 0), stats.get("sent", 0)
            d_retx = retx - state["retx"]
            d_sent = sent - state["sent"]
            state["retx"], state["sent"] = retx, sent
            if d_sent <= 0:
                return None
            return d_retx / d_sent

        probes["retransmit_rate"] = retransmit_rate

    return probes
