"""Overload protection at the chain ingress (PROTOCOL.md §12).

Two cooperating pieces keep the chain correct under any offered load:

* :class:`BackpressureBus` -- hop-by-hop credit accounting.  Every
  bounded queue in the data path (NIC receive queues, the buffer's
  held set, each reliable channel's send queue) registers itself as a
  :class:`PressureSource`; the bus reports the worst utilization as a
  single pressure level in [0, 1].  Pressure propagates *upstream*: a
  congested queue anywhere in the chain raises the level the ingress
  sees, instead of silently tail-dropping mid-chain.

* :class:`AdmissionControl` -- a token-bucket gate with priority
  classes at the classifier, the *only* point where shedding is safe.
  A packet dropped after its first middlebox has already mutated
  replicated state; a packet dropped at ingress has touched nothing,
  so the piggyback replication invariant holds under arbitrary load.
  Lower classes are shed first via per-class reserve floors: class
  ``c`` may only take a token while more than ``floor[c]`` tokens
  remain, and the floors decrease monotonically with priority, so at
  any instant a high class is admitted whenever a lower one is.

Both are inert until wired into a chain (``admission=None`` default),
keeping fig5/fig13 byte-identical.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..telemetry import NULL_TELEMETRY

__all__ = ["TokenBucket", "AdmissionControl", "BackpressureBus",
           "PressureSource"]

#: Backpressure level at which the gate sheds every class.
HIGH_WATERMARK = 0.85


class TokenBucket:
    """Lazily-refilled token bucket (rate ``rate_pps``, depth ``burst``).

    Refill is computed on demand from elapsed virtual time, so the
    bucket schedules nothing and is a pure function of the call
    sequence -- deterministic by construction.
    """

    def __init__(self, rate_pps: float, burst: float):
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_pps = rate_pps
        self.burst = burst
        self.tokens = burst
        self._last_refill = 0.0

    def refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(self.burst, self.tokens +
                              (now - self._last_refill) * self.rate_pps)
            self._last_refill = now

    def set_rate(self, rate_pps: float, now: float) -> None:
        """Change the refill rate; tokens accrued so far are kept."""
        self.refill(now)
        self.rate_pps = max(rate_pps, 1e-9)

    def take(self, now: float, floor: float = 0.0) -> bool:
        """Take one token iff at least ``1 + floor`` are available."""
        self.refill(now)
        if self.tokens >= 1.0 + floor:
            self.tokens -= 1.0
            return True
        return False


class PressureSource:
    """One bounded queue's view on the bus: occupancy / bound.

    ``bound`` may be an int or a zero-argument callable -- chaos
    faults (``queue-pressure``) shrink bounds at runtime, and the
    pressure level must track the bound actually in force.
    """

    def __init__(self, name: str, occupancy: Callable[[], int], bound):
        if not callable(bound) and bound < 1:
            raise ValueError(f"pressure source {name!r} bound must be >= 1")
        self.name = name
        self.occupancy = occupancy
        self._bound = bound
        self.peak = 0
        #: Largest bound ever in force while sampled.  Chaos may shrink
        #: a bound below occupancy that was legally enqueued earlier, so
        #: the auditor compares ``peak`` against this, not the instant
        #: bound.
        self.bound_peak = 0 if callable(bound) else bound

    @property
    def bound(self) -> int:
        return self._bound() if callable(self._bound) else self._bound

    def level(self) -> float:
        occ = self.occupancy()
        if occ > self.peak:
            self.peak = occ
        bound = self.bound
        if bound > self.bound_peak:
            self.bound_peak = bound
        return min(1.0, occ / max(1, bound))


class BackpressureBus:
    """Aggregates pressure from every registered bounded queue.

    ``level()`` is the max utilization across sources -- the credit
    view the ingress gate consumes.  Per-source peaks are retained for
    the auditor's queue-bound invariant.
    """

    def __init__(self):
        self.sources: List[PressureSource] = []

    def add(self, name: str, occupancy: Callable[[], int],
            bound) -> PressureSource:
        source = PressureSource(name, occupancy, bound)
        self.sources.append(source)
        return source

    def level(self) -> float:
        if not self.sources:
            return 0.0
        return max(source.level() for source in self.sources)


class AdmissionControl:
    """Priority token-bucket gate at the chain ingress.

    Args:
        sim: the simulator (for virtual time and flight timestamps).
        rate_pps: sustained admission rate (the chain's budget); the
            bucket holds 2 ms of it, and at least 16 tokens.
        n_classes: priority classes; class ``n_classes - 1`` is most
            important and unstamped packets default to it (control
            traffic must never be shed below data).
        bus: optional :class:`BackpressureBus`; when its level reaches
            :data:`HIGH_WATERMARK` the gate sheds *everything* -- the
            hard stop that keeps every bounded queue strictly within
            bounds.
        telemetry: metric registry + flight recorder bundle.

    Shed ordering: class ``c`` admits only while the bucket holds more
    than ``reserve[c]`` tokens, with ``reserve`` monotonically
    decreasing in ``c``.  Backpressure inflates every floor toward the
    bucket depth (low classes starve first), and brownout's
    ``tighten()`` scales the refill rate down.
    """

    def __init__(self, sim, rate_pps: float, n_classes: int = 3,
                 bus: Optional[BackpressureBus] = None, telemetry=None):
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        self.sim = sim
        self.base_rate_pps = rate_pps
        self.n_classes = n_classes
        self.bus = bus
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        burst = max(16.0, rate_pps * 2e-3)
        self.bucket = TokenBucket(rate_pps, burst)
        #: Reserve floors: class c only drains the bucket down to
        #: reserve[c].  Monotone decreasing => strict shed ordering.
        if n_classes == 1:
            self.reserve = [0.0]
        else:
            self.reserve = [0.5 * burst * (n_classes - 1 - c) / (n_classes - 1)
                            for c in range(n_classes)]
        #: Brownout throttle: effective rate = base * scale.
        self.scale = 1.0
        self.offered = 0
        self.admitted = 0
        self.offered_by_class = [0] * n_classes
        self.admitted_by_class = [0] * n_classes
        self.shed_by_class = [0] * n_classes
        registry = self.telemetry.registry
        registry.counter("admission/admitted", lambda: self.admitted)
        registry.counter("drops/admission", lambda: self.shed)

    @property
    def shed(self) -> int:
        return sum(self.shed_by_class)

    def class_of(self, packet) -> int:
        prio = packet.meta.get("prio", self.n_classes - 1)
        return max(0, min(self.n_classes - 1, int(prio)))

    def set_scale(self, scale: float) -> None:
        """Brownout hook: throttle the refill rate to ``base * scale``."""
        self.scale = scale
        self.bucket.set_rate(self.base_rate_pps * scale, self.sim.now)

    def offer(self, packet) -> bool:
        """Gate one packet at ingress; True = admitted."""
        now = self.sim.now
        if self.telemetry.enabled:
            self.telemetry.emit("admission", "check", t=now)
        cls = self.class_of(packet)
        self.offered += 1
        self.offered_by_class[cls] += 1
        pressure = self.bus.level() if self.bus is not None else 0.0
        if pressure >= HIGH_WATERMARK:
            # Hard stop: some queue downstream is nearly full.  Shed
            # every class -- admitting anything risks an in-chain drop,
            # which is the one thing this gate exists to prevent.
            return self._shed(packet, cls, now,
                              f"backpressure level {pressure:.2f}")
        floor = self.reserve[cls]
        if pressure > 0.0:
            # Credit coupling: pressure inflates every floor toward
            # the bucket depth, starving low classes first.
            floor += pressure * (self.bucket.burst - floor)
        if not self.bucket.take(now, floor):
            return self._shed(packet, cls, now,
                              f"tokens below class-{cls} floor")
        self.admitted += 1
        self.admitted_by_class[cls] += 1
        return True

    def _shed(self, packet, cls: int, now: float, reason: str) -> bool:
        self.shed_by_class[cls] += 1
        if self.telemetry.enabled:
            self.telemetry.emit("admission", "shed", t=now, pid=packet.pid,
                                cls=cls, reason=reason)
        return False
