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

from typing import Callable, Dict, List, Optional

from ..telemetry import NULL_TELEMETRY

__all__ = ["TokenBucket", "AdmissionControl", "BackpressureBus",
           "PressureSource"]


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

    def available(self, now: float) -> float:
        self.refill(now)
        return self.tokens

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

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Current occupancy/bound/peak per source (for reports)."""
        out: Dict[str, Dict[str, float]] = {}
        for source in self.sources:
            out[source.name] = {"occupancy": source.occupancy(),
                                "bound": source.bound,
                                "bound_peak": source.bound_peak,
                                "peak": source.peak}
        return out


class AdmissionControl:
    """Priority token-bucket gate at the chain ingress.

    Args:
        sim: the simulator (for virtual time and flight timestamps).
        rate_pps: sustained admission rate (the chain's budget).
        burst: bucket depth in tokens (default: 2 ms of ``rate_pps``).
        n_classes: priority classes; class ``n_classes - 1`` is most
            important and unstamped packets default to it (control
            traffic must never be shed below data).
        bus: optional :class:`BackpressureBus`; when its level reaches
            ``high_watermark`` the gate sheds *everything* -- the hard
            stop that keeps every bounded queue strictly within bounds.
        telemetry: metric registry + flight recorder bundle.

    Shed ordering: class ``c`` admits only while the bucket holds more
    than ``reserve[c]`` tokens, with ``reserve`` monotonically
    decreasing in ``c``.  Backpressure inflates every floor toward the
    bucket depth (low classes starve first), and brownout's
    ``tighten()`` scales the refill rate down.
    """

    def __init__(self, sim, rate_pps: float, burst: Optional[float] = None,
                 n_classes: int = 3, bus: Optional[BackpressureBus] = None,
                 high_watermark: float = 0.85, telemetry=None,
                 name: str = "admission"):
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1]")
        self.sim = sim
        self.name = name
        self.base_rate_pps = rate_pps
        self.n_classes = n_classes
        self.bus = bus
        self.high_watermark = high_watermark
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        burst = burst if burst is not None else max(16.0, rate_pps * 2e-3)
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
        self.shed_backpressure = 0
        self._prof = self.telemetry.profiler
        registry = self.telemetry.registry
        self._m_admitted = registry.counter(f"{name}/admitted")
        self._m_shed = registry.counter(f"drops/{name}")
        self._flight = self.telemetry.flight

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
        if self._prof.enabled:
            self._prof.count("admission/check")
        now = self.sim.now
        cls = self.class_of(packet)
        self.offered += 1
        self.offered_by_class[cls] += 1
        pressure = self.bus.level() if self.bus is not None else 0.0
        if pressure >= self.high_watermark:
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
        self._m_admitted.inc()
        return True

    def _shed(self, packet, cls: int, now: float, reason: str) -> bool:
        self.shed_by_class[cls] += 1
        if reason.startswith("backpressure"):
            self.shed_backpressure += 1
        self._m_shed.inc()
        if self._flight.enabled:
            self._flight.record(
                "admission", "shed", t=now, pid=packet.pid,
                detail=f"class {cls}: {reason}", chain=f"pid:{packet.pid}")
        return False

    def stats(self) -> Dict[str, object]:
        return {"offered": self.offered, "admitted": self.admitted,
                "shed": self.shed,
                "shed_by_class": list(self.shed_by_class),
                "shed_backpressure": self.shed_backpressure,
                "scale": self.scale}
