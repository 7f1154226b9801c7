"""Traffic generation (the MoonGen / pktgen role).

Generators emit :class:`~repro.net.packet.Packet` objects into a sink
callable at a configured offered load, with deterministic (constant
bit rate) or Poisson interarrivals, over a pool of flows balanced
across NIC receive queues so multi-threaded middleboxes actually see
parallel work.

Beyond the constant-rate :class:`TrafficGenerator`, the workload layer
(PROTOCOL.md §12.1) models what "millions of users" actually send:
:class:`WorkloadSpec` describes heavy-tailed per-flow weights
(Zipf/Pareto elephants and mice), a diurnal load cycle, and scripted
:class:`FlashCrowd` windows; :class:`WorkloadGenerator` turns the spec
into a seeded-deterministic packet stream with per-flow priority
classes stamped into ``packet.meta["prio"]``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim import RandomStreams, Simulator
from .packet import FlowKey, Packet, ip

__all__ = ["balanced_flows", "TrafficGenerator", "FlowPool",
           "FlashCrowd", "WorkloadSpec", "WorkloadGenerator"]


def balanced_flows(n_flows: int, n_queues: int,
                   base_src: str = "10.1.0.0",
                   dst: str = "192.168.0.1") -> List[FlowKey]:
    """Build ``n_flows`` flows spread evenly over ``n_queues`` RSS queues.

    Flow ``i`` hashes to queue ``i % n_queues``, so round-robin emission
    keeps every worker thread busy -- mirroring the uniform traffic the
    paper's generators produce.
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    flows: List[FlowKey] = []
    next_queue = 0
    src_base = ip(base_src)
    dst_ip = ip(dst)
    candidate = 0
    while len(flows) < n_flows:
        src_ip = src_base + 1 + (candidate >> 14)
        src_port = 1024 + (candidate & 0x3FFF)
        candidate += 1
        flow = FlowKey(src_ip, dst_ip, src_port, 80)
        if flow.rss_hash() % n_queues == next_queue:
            flows.append(flow)
            next_queue = (next_queue + 1) % n_queues
    return flows


class FlowPool:
    """A pool of flows with a selection policy."""

    def __init__(self, flows: Sequence[FlowKey], policy: str = "round-robin",
                 streams: Optional[RandomStreams] = None):
        if not flows:
            raise ValueError("flow pool cannot be empty")
        if policy not in ("round-robin", "uniform"):
            raise ValueError(f"unknown flow selection policy {policy!r}")
        self.flows = list(flows)
        self.policy = policy
        self._cycle = itertools.cycle(self.flows)
        self._streams = streams or RandomStreams(0)

    def next_flow(self) -> FlowKey:
        if self.policy == "round-robin":
            return next(self._cycle)
        return self._streams.choice("flowpool", self.flows)


class TrafficGenerator:
    """Feeds packets into a sink at a target rate.

    Args:
        sim: the simulator.
        sink: callable receiving each packet (e.g. chain ingress).
        rate_pps: offered load in packets per second.
        flows: the flow pool to draw from.
        packet_size: bytes per packet (paper default 256 B).
        arrivals: ``"deterministic"`` for throughput tests or
            ``"poisson"`` for latency-vs-load curves.
        count: stop after this many packets (None = until stopped).
    """

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 rate_pps: float, flows: Sequence[FlowKey],
                 packet_size: int = 256, arrivals: str = "deterministic",
                 count: Optional[int] = None,
                 streams: Optional[RandomStreams] = None,
                 name: str = "trafficgen"):
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        if arrivals not in ("deterministic", "poisson"):
            raise ValueError(f"unknown arrival process {arrivals!r}")
        self.sim = sim
        self.sink = sink
        self.rate_pps = rate_pps
        self.pool = FlowPool(flows, streams=streams)
        self.packet_size = packet_size
        self.arrivals = arrivals
        self.count = count
        self.name = name
        self._streams = streams or RandomStreams(0)
        self.sent = 0
        self._stopped = False
        self._process = sim.process(self._run(), name=name)

    @property
    def done(self):
        """Event fired when the generator finishes (count exhausted/stop)."""
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def _interarrival(self) -> float:
        mean = 1.0 / self.rate_pps
        if self.arrivals == "poisson":
            return self._streams.exponential(f"{self.name}/arrivals", mean)
        return mean

    def _run(self):
        while not self._stopped:
            if self.count is not None and self.sent >= self.count:
                break
            yield self.sim.timeout(self._interarrival())
            if self._stopped:
                break
            packet = Packet(flow=self.pool.next_flow(),
                            size=self.packet_size,
                            created_at=self.sim.now)
            self.sent += 1
            self.sink(packet)
        return self.sent


# -- workload layer (PROTOCOL.md §12.1) -----------------------------------


@dataclass(frozen=True)
class FlashCrowd:
    """One scripted flash-crowd window: the offered load is multiplied
    by ``multiplier`` for ``duration_s`` starting at ``at_s``."""

    at_s: float
    duration_s: float
    multiplier: float

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError("flash at_s must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("flash duration_s must be positive")
        if self.multiplier <= 0:
            raise ValueError("flash multiplier must be positive")

    def active(self, t: float) -> bool:
        return self.at_s <= t < self.at_s + self.duration_s


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of an offered-load process.

    ``rate_at(t)`` composes three deterministic factors::

        base_pps  *  (1 + diurnal_amplitude * sin(2*pi*t / diurnal_period_s))
                  *  product(flash.multiplier for active flashes)

    Per-flow weights follow a Zipf/Pareto tail with exponent
    ``pareto_alpha`` (flow ``i`` carries weight ``(i+1)**-alpha``), so a
    few elephant flows dominate while a long tail of mice trickles --
    the shape real SFC traffic has.  Each flow belongs to one of
    ``n_classes`` priority classes (flow index mod ``n_classes``;
    higher class = more important), which admission control uses for
    shed ordering.
    """

    base_pps: float = 2e4
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 1.0
    flashes: Tuple[FlashCrowd, ...] = field(default_factory=tuple)
    pareto_alpha: float = 1.3
    n_flows: int = 64
    n_classes: int = 3
    packet_size: int = 256
    arrivals: str = "poisson"

    def __post_init__(self):
        if self.base_pps <= 0:
            raise ValueError("base_pps must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 0.95:
            raise ValueError("diurnal_amplitude must be in [0, 0.95]")
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if self.pareto_alpha <= 0:
            raise ValueError("pareto_alpha must be positive")
        if self.n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.packet_size < 64:
            raise ValueError("packet_size must be >= 64")
        if self.arrivals not in ("deterministic", "poisson"):
            raise ValueError(f"unknown arrival process {self.arrivals!r}")

    def rate_at(self, t: float) -> float:
        """Offered load (pps) at virtual time ``t``."""
        rate = self.base_pps
        if self.diurnal_amplitude:
            rate *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period_s)
        for flash in self.flashes:
            if flash.active(t):
                rate *= flash.multiplier
        return rate

    def peak_rate(self) -> float:
        """Upper bound on :meth:`rate_at` over all time."""
        rate = self.base_pps * (1.0 + self.diurnal_amplitude)
        for flash in self.flashes:
            rate *= flash.multiplier
        return rate

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse ``key=value`` pairs, e.g.
        ``base=2e4,flash=0.01:0.02:4,diurnal=0.3:0.05,alpha=1.3,flows=64,classes=3``.

        Keys: ``base`` (pps), ``flash`` (``at:dur:mult``, ``+``-separated
        for several windows), ``diurnal`` (``amplitude:period``),
        ``alpha``, ``flows``, ``classes``, ``size``, ``arrivals``.
        """
        def num(value: str, key: str, cast=float):
            try:
                return cast(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"bad value for {key!r}: {value!r}") from exc

        kwargs: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            if key == "base":
                kwargs["base_pps"] = num(value, key)
            elif key == "flash":
                flashes = list(kwargs.get("flashes", ()))
                for window in value.split("+"):
                    fields = window.split(":")
                    if len(fields) != 3:
                        raise ValueError(
                            f"flash window must be at:dur:mult, "
                            f"got {window!r}")
                    flashes.append(FlashCrowd(*(num(f, key)
                                                for f in fields)))
                kwargs["flashes"] = tuple(flashes)
            elif key == "diurnal":
                fields = value.split(":")
                if len(fields) != 2:
                    raise ValueError(
                        f"diurnal must be amplitude:period, got {value!r}")
                kwargs["diurnal_amplitude"] = num(fields[0], key)
                kwargs["diurnal_period_s"] = num(fields[1], key)
            elif key == "alpha":
                kwargs["pareto_alpha"] = num(value, key)
            elif key == "flows":
                kwargs["n_flows"] = num(value, key, int)
            elif key == "classes":
                kwargs["n_classes"] = num(value, key, int)
            elif key == "size":
                kwargs["packet_size"] = num(value, key, int)
            elif key == "arrivals":
                kwargs["arrivals"] = value.strip()
            else:
                raise ValueError(f"unknown workload key {key!r}")
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [f"base={self.base_pps:g}pps",
                 f"alpha={self.pareto_alpha:g}",
                 f"flows={self.n_flows}", f"classes={self.n_classes}",
                 f"arrivals={self.arrivals}"]
        if self.diurnal_amplitude:
            parts.append(f"diurnal={self.diurnal_amplitude:g}"
                         f"@{self.diurnal_period_s:g}s")
        for flash in self.flashes:
            parts.append(f"flash={flash.multiplier:g}x"
                         f"@[{flash.at_s:g},"
                         f"{flash.at_s + flash.duration_s:g})s")
        return " ".join(parts)


class WorkloadGenerator:
    """Drives a sink from a :class:`WorkloadSpec`.

    Deterministic for a given (spec, seed): flow weights, class
    assignment, interarrivals, and flow selection are all pure
    functions of the named random streams.  The instantaneous rate is
    re-read from ``spec.rate_at(now)`` before every interarrival draw,
    so diurnal drift and flash windows take effect mid-run without any
    rescheduling machinery.
    """

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 spec: WorkloadSpec, n_queues: int = 1,
                 streams: Optional[RandomStreams] = None,
                 name: str = "workload"):
        self.sim = sim
        self.sink = sink
        self.spec = spec
        self.name = name
        self._streams = streams or RandomStreams(0)
        self.flows = balanced_flows(spec.n_flows, n_queues)
        #: Zipf/Pareto weights: flow i carries (i+1)**-alpha of the load.
        weights = [(i + 1) ** -spec.pareto_alpha
                   for i in range(spec.n_flows)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0
        #: Flash-crowd multiplier applied on top of the spec (chaos
        #: faults dial this up and back down; 1.0 = inert).
        self.boost = 1.0
        self.sent = 0
        self.sent_by_class = [0] * spec.n_classes
        self._stopped = False
        self._process = sim.process(self._run(), name=name)

    @property
    def done(self):
        return self._process

    def stop(self) -> None:
        self._stopped = True

    def class_of(self, flow_index: int) -> int:
        """Priority class of flow ``i`` (higher = more important)."""
        return flow_index % self.spec.n_classes

    def _pick_flow(self) -> int:
        draw = self._streams.uniform(f"{self.name}/flows", 0.0, 1.0)
        return min(bisect.bisect_left(self._cumulative, draw),
                   self.spec.n_flows - 1)

    def _interarrival(self) -> float:
        rate = self.spec.rate_at(self.sim.now) * self.boost
        mean = 1.0 / rate
        if self.spec.arrivals == "poisson":
            return self._streams.exponential(f"{self.name}/arrivals", mean)
        return mean

    def _run(self):
        while not self._stopped:
            yield self.sim.timeout(self._interarrival())
            if self._stopped:
                break
            index = self._pick_flow()
            packet = Packet(flow=self.flows[index],
                            size=self.spec.packet_size,
                            created_at=self.sim.now)
            prio = self.class_of(index)
            packet.meta["prio"] = prio
            self.sent += 1
            self.sent_by_class[prio] += 1
            self.sink(packet)
        return self.sent
