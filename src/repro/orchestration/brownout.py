"""SLO-driven brownout: the watchdog becomes an actuator (§12.3).

PR 5's :class:`~repro.flight.slo.SLOWatchdog` only *observed*.  The
:class:`BrownoutController` subscribes to its evaluation ticks and
turns sustained breaches into declarative protective actions:

* **tighten admission** -- scale the ingress token-bucket refill rate
  by ``ADMISSION_FACTOR ** level``;
* **coarsen monitor sampling** -- multiply the watchdog's own
  evaluation interval by ``SAMPLING_FACTOR ** level`` (observing less
  while overloaded is itself load shedding);
* **batch piggyback acks** -- multiply the buffer's minimum feedback
  spacing by ``FEEDBACK_FACTOR ** level`` so more packets' commit
  state shares one feedback message.

Transitions are *hysteretic*: the controller escalates one level (up
to ``MAX_LEVEL``) only after ``ENTER_AFTER`` consecutive breach ticks
and de-escalates only after ``EXIT_AFTER`` consecutive clean ticks, so
a flapping indicator cannot flap the actions.  At level 0 every knob
is restored exactly to its captured base value -- brownout always
exits once pressure clears.

Every transition is recorded in the flight ring, kept in
``self.transitions``, and (when a ``journal`` sink is wired) journaled
through the replicated control plane, so post-mortem tooling can
prove the enter/exit history matches what the control plane agreed
to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..telemetry import NULL_TELEMETRY

__all__ = ["BrownoutTransition", "BrownoutController", "BROWNOUT_STEPS"]

#: Journal step names used when a transition goes through the
#: replicated control plane (mirrored into JOURNAL_STEPS).
BROWNOUT_STEPS = ("brownout-enter", "brownout-escalate",
                  "brownout-deescalate", "brownout-exit")

#: Hysteresis: consecutive breach ticks to go up a level, consecutive
#: clean ticks to come down one, and the highest level.
ENTER_AFTER = 2
EXIT_AFTER = 4
MAX_LEVEL = 3
#: Per-level action strengths (PROTOCOL.md §12.3).
ADMISSION_FACTOR = 0.5
SAMPLING_FACTOR = 2.0
FEEDBACK_FACTOR = 4.0


def _check_policy(enter_after, exit_after, max_level, admission_factor,
                  sampling_factor, feedback_factor):
    if enter_after < 1 or exit_after < 1:
        raise ValueError("hysteresis thresholds must be >= 1")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    if not 0.0 < admission_factor <= 1.0:
        raise ValueError("admission_factor must be in (0, 1]")
    if sampling_factor < 1.0 or feedback_factor < 1.0:
        raise ValueError("sampling/feedback factors must be >= 1")


_check_policy(ENTER_AFTER, EXIT_AFTER, MAX_LEVEL, ADMISSION_FACTOR,
              SAMPLING_FACTOR, FEEDBACK_FACTOR)


@dataclass(frozen=True)
class BrownoutTransition:
    """One state-machine edge, as recorded and journaled."""

    t: float
    kind: str        # enter | escalate | deescalate | exit
    level: int       # level *after* the transition
    reason: str

    def describe(self) -> str:
        return f"{self.kind} level={self.level} {self.reason}"


class BrownoutController:
    """Hysteretic overload governor driven by SLO evaluations.

    Args:
        sim: the simulator (timestamps only; schedules nothing itself).
        watchdog: the :class:`SLOWatchdog` to subscribe to and whose
            sampling interval the coarsening action stretches.
        admission: optional :class:`AdmissionControl` to throttle.
        buffer: optional egress :class:`Buffer` whose feedback spacing
            the ack-batching action stretches.
        journal: optional sink called with each
            :class:`BrownoutTransition`; the overload soak wires this
            to the replicated control plane's write-ahead journal.
    """

    def __init__(self, sim, watchdog, admission=None, buffer=None,
                 journal: Optional[Callable[[BrownoutTransition], None]] = None,
                 telemetry=None):
        self.sim = sim
        self.watchdog = watchdog
        self.admission = admission
        self.buffer = buffer
        self.journal = journal
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.level = 0
        self.transitions: List[BrownoutTransition] = []
        #: Transitions successfully handed to the journal sink -- the
        #: auditor proves transitions == journaled 1:1.
        self.journaled: List[BrownoutTransition] = []
        self._breach_streak = 0
        self._clean_streak = 0
        self._base_interval_s = watchdog.interval_s
        self._base_feedback_s = (buffer.feedback_min_interval_s
                                 if buffer is not None else None)
        registry = self.telemetry.registry
        registry.counter("brownout/transitions", lambda: len(self.transitions))
        registry.gauge("brownout/level", lambda: self.level)
        watchdog.listeners.append(self._on_evaluate)

    # -- state machine -------------------------------------------------------

    def _on_evaluate(self, breaches) -> None:
        if breaches:
            self._clean_streak = 0
            self._breach_streak += 1
            if (self._breach_streak >= ENTER_AFTER
                    and self.level < MAX_LEVEL):
                self._breach_streak = 0
                worst = breaches[0]
                self._shift(+1, f"sustained breach: {worst.objective} "
                                f"observed={worst.observed:g}")
        else:
            self._breach_streak = 0
            self._clean_streak += 1
            if self._clean_streak >= EXIT_AFTER and self.level > 0:
                self._clean_streak = 0
                self._shift(-1, "pressure cleared")

    def _shift(self, delta: int, reason: str) -> None:
        previous = self.level
        self.level += delta
        if delta > 0:
            kind = "enter" if previous == 0 else "escalate"
        else:
            kind = "exit" if self.level == 0 else "deescalate"
        self._apply()
        transition = BrownoutTransition(t=self.sim.now, kind=kind,
                                        level=self.level, reason=reason)
        self.transitions.append(transition)
        self.telemetry.emit("brownout", kind, t=self.sim.now,
                            detail=transition.describe())
        if self.journal is not None:
            self.journal(transition)
            self.journaled.append(transition)

    def _apply(self) -> None:
        """Set every knob from the current level (level 0 = base)."""
        level = self.level
        if self.admission is not None:
            self.admission.set_scale(ADMISSION_FACTOR ** level)
        self.watchdog.interval_s = (self._base_interval_s *
                                    SAMPLING_FACTOR ** level)
        if self.buffer is not None:
            self.buffer.feedback_min_interval_s = (
                self._base_feedback_s * FEEDBACK_FACTOR ** level)

    # -- introspection -------------------------------------------------------

    def timeline(self) -> List[str]:
        return [f"[{tr.t * 1e3:.3f}ms] brownout {tr.describe()}"
                for tr in self.transitions]

    def balanced(self) -> bool:
        """True iff every enter eventually paired with an exit."""
        return self.level == 0
