"""Servers and network topology.

A :class:`Server` bundles CPU characteristics with a NIC; a
:class:`Network` wires servers together with links and offers a
datapath ``send`` plus a modelled control plane for the orchestrator.
Top-of-rack switching is folded into per-hop link delay, as the paper's
servers all hang off the same pair of ToR switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..sim import Simulator
from ..telemetry import NULL_TELEMETRY
from .impairment import DataImpairment
from .link import Link
from .nic import DEFAULT_NIC_PPS, NIC
from .packet import Packet

__all__ = ["Server", "Network", "ControlImpairment", "DEFAULT_CPU_HZ",
           "DEFAULT_HOP_DELAY_S"]

#: Xeon D-1540 clock (paper §7.1).
DEFAULT_CPU_HZ = 2.0e9

#: One-way server-to-server delay through the ToR switch.  §7.3 puts
#: the extra one-way network latency at 6--7 us; we use the midpoint.
DEFAULT_HOP_DELAY_S = 6.5e-6

#: 40 GbE data plane (paper §7.1).
DEFAULT_BANDWIDTH_BPS = 40e9


class Server:
    """A commodity server hosting middlebox/replica threads."""

    def __init__(self, sim: Simulator, name: str, n_cores: int = 8,
                 cpu_hz: float = DEFAULT_CPU_HZ,
                 nic_pps: float = DEFAULT_NIC_PPS,
                 nic_queues: Optional[int] = None,
                 nic_queue_depth: Optional[int] = None,
                 telemetry=None):
        self.sim = sim
        self.name = name
        self.n_cores = n_cores
        self.cpu_hz = cpu_hz
        nic_kwargs = {}
        if nic_queue_depth is not None:
            nic_kwargs["queue_depth"] = nic_queue_depth
        self.nic = NIC(sim, n_queues=nic_queues or n_cores,
                       pps_capacity=nic_pps, name=f"{name}/nic",
                       telemetry=telemetry, **nic_kwargs)
        self.failed = False
        self.region: Optional[str] = None  # set when placed in a cloud

    def cycles(self, n_cycles: float) -> float:
        """Convert CPU cycles to seconds at this server's clock."""
        return n_cycles / self.cpu_hz

    def fail(self) -> None:
        """Fail-stop: the server stops receiving and processing."""
        self.failed = True

    def restore(self) -> None:
        self.failed = False

    def __repr__(self):
        status = "FAILED" if self.failed else "up"
        return f"<Server {self.name} cores={self.n_cores} {status}>"


@dataclass
class ControlImpairment:
    """Seeded chaos applied to every control-plane message leg.

    Each direction of a control call (request and response) is an
    independent *leg*: a leg may be dropped (silence the caller's
    timeout logic must absorb), duplicated (handlers must be
    idempotent), and/or delayed.  ``expires_at`` lets the chaos monkey
    install bounded impairment windows.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    extra_delay_s: float = 0.0
    delay_jitter_s: float = 0.0
    expires_at: Optional[float] = None

    def active(self, now: float) -> bool:
        return self.expires_at is None or now < self.expires_at


class Network:
    """A set of servers and the links between them."""

    def __init__(self, sim: Simulator,
                 hop_delay_s: float = DEFAULT_HOP_DELAY_S,
                 bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS):
        self.sim = sim
        self.hop_delay_s = hop_delay_s
        self.bandwidth_bps = bandwidth_bps
        #: Control-plane transfer rate; WAN-limited in CloudNetwork.
        self.control_bandwidth_bps = bandwidth_bps
        self.servers: Dict[str, Server] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self.dropped_to_failed = 0
        self._impairment: Optional[ControlImpairment] = None
        self._impair_rng = None
        self._data_impairment: Optional[DataImpairment] = None
        self._data_rng = None
        #: Corrupted deliveries discarded at the receiver (FCS model).
        self.data_corrupt_dropped = 0
        self.control_messages = 0
        self.control_drops = 0
        self.control_dups = 0
        #: Kept by ``reliable_call`` (:mod:`repro.net.retry`).
        self.control_retries = 0
        self.control_timeouts = 0
        #: Control-plane partition: a tuple of frozensets of server
        #: names; messages whose src and dst fall in *different* groups
        #: are silently dropped on either leg.  Servers in no group
        #: (e.g. replicas spawned after the cut) are unaffected.
        self._partition: Optional[Tuple[frozenset, ...]] = None
        self.control_partition_drops = 0
        #: Set by the chain (or a test) to read drop and control-plane
        #: counters into a metric registry; NULL_TELEMETRY keeps none.
        self.telemetry = NULL_TELEMETRY
        self._metered: set = set()

    # -- construction --------------------------------------------------------

    def add_server(self, name: str, **kwargs) -> Server:
        if name in self.servers:
            raise ValueError(f"duplicate server name {name!r}")
        kwargs.setdefault("telemetry", self.telemetry)
        server = Server(self.sim, name, **kwargs)
        self.servers[name] = server
        return server

    def meter(self, metric: str, attr: str) -> None:
        """Register counter ``metric`` as a read of ``attr`` at its first
        event: these names appear only once something happened."""
        if metric not in self._metered and self.telemetry.enabled:
            self._metered.add(metric)
            self.telemetry.registry.counter(
                metric, lambda: getattr(self, attr))

    def _count_drop(self, site: str, attr: str, packet=None) -> None:
        """Audit hook (PROTOCOL.md §12.2): no drop is ever silent; the
        count is ``attr``, already incremented."""
        self.meter(f"drops/{site}", attr)
        if self.telemetry.enabled:
            self.telemetry.emit("net", site, t=self.sim.now,
                                pid=getattr(packet, "pid", None))

    def drop_to_failed(self, packet) -> None:
        """Count a packet lost because an endpoint server is failed."""
        self.dropped_to_failed += 1
        self._count_drop("net-to-failed", "dropped_to_failed", packet)

    def connect(self, src: str, dst: str,
                delay_s: Optional[float] = None,
                bandwidth_bps: Optional[float] = None) -> Link:
        """Create (or return) the unidirectional link src -> dst."""
        key = (src, dst)
        link = self._links.get(key)
        if link is not None:
            return link
        if src not in self.servers or dst not in self.servers:
            raise KeyError(f"unknown server in {key}")
        dst_server = self.servers[dst]

        def sink(packet, _dst=dst_server):
            if getattr(packet, "corrupted_wire", False):
                # No reliability layer adopted this link: the receiver
                # NIC's FCS check discards the damaged packet.
                self.data_corrupt_dropped += 1
                self._count_drop("net-corrupt", "data_corrupt_dropped",
                                 packet)
                return
            _dst.nic.receive(packet)

        # The link itself drops what arrives at a failed server, before
        # any sink (this one or a channel bound on top) sees it.
        link = Link(self.sim, sink,
                    delay_s=self.hop_delay_s if delay_s is None else delay_s,
                    bandwidth_bps=bandwidth_bps or self.bandwidth_bps,
                    name=f"{src}->{dst}", telemetry=self.telemetry,
                    dst=dst_server, on_dead=self.drop_to_failed)
        if self._data_impairment is not None:
            # Links created later (e.g. by recovery wiring a respawned
            # replica) inherit the impairment currently installed.
            link.set_impairment(self._data_impairment, self._data_rng)
        self._links[key] = link
        return link

    # -- data plane -----------------------------------------------------------

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst}; call connect() first") from None

    def send(self, src: str, dst: str, packet: Packet) -> None:
        """Transmit a packet from server ``src`` to server ``dst``."""
        if self.servers[src].failed:
            self.drop_to_failed(packet)
            return
        self.link(src, dst).send(packet)

    def deliver_external(self, dst: str, packet: Packet) -> None:
        """Inject traffic from outside the topology (the generator)."""
        server = self.servers[dst]
        if server.failed:
            self.drop_to_failed(packet)
            return
        server.nic.receive(packet)

    # -- control plane ----------------------------------------------------------

    def control_rtt(self, src: str, dst: str) -> float:
        """Round-trip time for control messages between two servers.

        Within one site this is twice the hop delay; a cloud model can
        override per-region delays by subclassing or monkey-patching.
        """
        if src == dst:
            return 0.0
        return 2.0 * self.hop_delay_s

    def impair(self, drop_rate: float = 0.0, dup_rate: float = 0.0,
               extra_delay_s: float = 0.0, delay_jitter_s: float = 0.0,
               duration_s: Optional[float] = None,
               seed: int = 0) -> ControlImpairment:
        """Install control-plane impairment (chaos fault injection).

        Applies to every subsequent :meth:`control_call` leg until
        ``duration_s`` elapses (or :meth:`clear_impairment`).  Draws
        come from a dedicated seeded stream so impaired runs stay
        exactly reproducible.
        """
        from ..sim import RandomStreams
        self._impairment = ControlImpairment(
            drop_rate=drop_rate, dup_rate=dup_rate,
            extra_delay_s=extra_delay_s, delay_jitter_s=delay_jitter_s,
            expires_at=(None if duration_s is None
                        else self.sim.now + duration_s))
        if self._impair_rng is None:
            self._impair_rng = RandomStreams(seed).stream("control-impairment")
        return self._impairment

    def clear_impairment(self) -> None:
        self._impairment = None

    # -- control-plane partitions -------------------------------------------------

    def partition(self, *groups) -> Tuple[frozenset, ...]:
        """Partition the control plane into ``groups`` of server names.

        Messages between servers in different groups are dropped on
        whichever leg crosses the cut -- silence, exactly like a dropped
        impaired leg, so the retry layer's timeouts absorb it.  Servers
        not named in any group keep full connectivity (a replica spawned
        mid-partition is outside the cut).  Returns a token that
        :meth:`heal` accepts, so overlapping chaos windows only heal
        their own cut.
        """
        token = tuple(frozenset(group) for group in groups)
        self._partition = token
        return token

    def heal(self, token: Optional[Tuple[frozenset, ...]] = None) -> None:
        """Remove the current partition (or only ``token``'s, if given)."""
        if token is None or self._partition == token:
            self._partition = None

    def control_blocked(self, src: str, dst: str) -> bool:
        """True when a control message src -> dst crosses the partition."""
        if self._partition is None or src == dst:
            return False
        src_group = next((i for i, g in enumerate(self._partition)
                          if src in g), None)
        dst_group = next((i for i, g in enumerate(self._partition)
                          if dst in g), None)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    # -- data-plane impairment ---------------------------------------------------

    def impair_data(self, drop_rate: float = 0.0, dup_rate: float = 0.0,
                    reorder_rate: float = 0.0, corrupt_rate: float = 0.0,
                    reorder_delay_s: Optional[float] = None,
                    duration_s: Optional[float] = None,
                    seed: int = 0,
                    links: Optional[Tuple[Tuple[str, str], ...]] = None
                    ) -> DataImpairment:
        """Install data-plane impairment on links (chaos fault injection).

        The data-plane twin of :meth:`impair`: every packet offered to
        an affected link may be dropped, duplicated, reordered, or
        corrupted until ``duration_s`` elapses (or
        :meth:`clear_data_impairment`).  ``links`` restricts the blast
        radius to specific ``(src, dst)`` pairs; by default every
        existing link -- and any link created later, e.g. by recovery
        -- is impaired.  Draws come from one dedicated seeded stream so
        impaired runs stay exactly reproducible.
        """
        from ..sim import RandomStreams
        kwargs = {} if reorder_delay_s is None else {
            "reorder_delay_s": reorder_delay_s}
        spec = DataImpairment(
            drop_rate=drop_rate, dup_rate=dup_rate,
            reorder_rate=reorder_rate, corrupt_rate=corrupt_rate,
            expires_at=(None if duration_s is None
                        else self.sim.now + duration_s), **kwargs)
        if self._data_rng is None:
            self._data_rng = RandomStreams(seed).stream("data-impairment")
        if links is None:
            self._data_impairment = spec
            targets = list(self._links.values())
        else:
            targets = [self.link(src, dst) for src, dst in links]
        for link in targets:
            link.set_impairment(spec, self._data_rng)
        return spec

    def clear_data_impairment(self) -> None:
        self._data_impairment = None
        for link in self._links.values():
            link.clear_impairment()

    def data_leg_lost(self) -> bool:
        """Draw whether one reverse-path leg (ACK/NACK) is lost.

        The reliability layer's acknowledgements travel against the
        data direction; they share the wire's fate, so an installed
        impairment's drop rate applies to them too (from the same
        stream, keeping runs seed-pure).
        """
        imp = self._data_impairment
        if imp is None or not imp.active(self.sim.now) or not imp.drop_rate:
            return False
        return self._data_rng.random() < imp.drop_rate

    def data_impairment_stats(self) -> Dict[str, int]:
        """Per-kind impairment totals summed over all links."""
        stats = {"dropped": 0, "duplicated": 0, "reordered": 0,
                 "corrupted": 0}
        for link in self._links.values():
            stats["dropped"] += link.impair_dropped
            stats["duplicated"] += link.impair_duplicated
            stats["reordered"] += link.impair_reordered
            stats["corrupted"] += link.impair_corrupted
        return stats

    def _impaired_leg(self) -> Tuple[int, float]:
        """(copies delivered, extra delay) for one control-message leg."""
        imp = self._impairment
        if imp is None or not imp.active(self.sim.now):
            return 1, 0.0
        rng = self._impair_rng
        copies = 1
        if imp.drop_rate and rng.random() < imp.drop_rate:
            copies = 0
            self.control_drops += 1
            self.meter("net/control_drops", "control_drops")
        elif imp.dup_rate and rng.random() < imp.dup_rate:
            copies = 2
            self.control_dups += 1
            self.meter("net/control_dups", "control_dups")
        extra = imp.extra_delay_s
        if imp.delay_jitter_s:
            extra += rng.uniform(0.0, imp.delay_jitter_s)
        return copies, extra

    def control_call(self, src: str, dst: str,
                     handler: Callable[[], object],
                     payload_bytes: int = 256,
                     response_bytes: int = 256):
        """Simulate an RPC: returns an event with the handler's result.

        The handler runs on ``dst`` after a one-way delay; the result
        arrives back at ``src`` after transfer of ``response_bytes``.
        Either leg may be dropped/duplicated/delayed while an
        impairment is installed -- silence is the caller's problem
        (see ``repro.net.retry`` for the timeout/retry wrapper).
        """
        done = self.sim.event()
        one_way = self.control_rtt(src, dst) / 2.0
        transfer = ((payload_bytes + response_bytes) * 8.0 /
                    self.control_bandwidth_bps)
        self.control_messages += 1
        self.meter("net/control_messages", "control_messages")

        def at_destination():
            if self.servers[dst].failed:
                # The caller's timeout logic must handle silence.
                return
            result = handler()
            if self.control_blocked(dst, src):
                # The response leg crosses a partition installed since
                # (or during) the request: the reply never arrives.
                self.control_partition_drops += 1
                return
            copies, extra = self._impaired_leg()
            for _ in range(copies):
                self.sim.schedule_callback(
                    one_way + transfer + extra,
                    lambda: None if done.triggered else done.succeed(result))

        if self.control_blocked(src, dst):
            self.control_partition_drops += 1
            return done  # the request leg is cut; silence for the caller
        copies, extra = self._impaired_leg()
        for _ in range(copies):
            self.sim.schedule_callback(one_way + extra, at_destination)
        return done
