"""Packets and flows.

Packets in this reproduction are lightweight records rather than byte
buffers: protocol layers attach structured objects (e.g. the FTC
piggyback message) instead of serialized headers, but every attachment
reports a byte size so wire-level costs (link serialization, NIC and
copy overheads, Fig 5's state-size sweep) stay faithful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["FlowKey", "Packet", "PidBitmap", "ip", "format_ip"]

#: Protocol numbers (the usual IANA values, for realism in flow keys).
PROTO_TCP = 6
PROTO_UDP = 17


def ip(dotted: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer address."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address {dotted!r}")
        value = (value << 8) | octet
    return value


def format_ip(value: int) -> str:
    """Render a 32-bit integer address as dotted-quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"address {value!r} out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, slots=True)
class FlowKey:
    """The classic 5-tuple identifying a traffic flow."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP

    def reversed(self) -> "FlowKey":
        """The reverse direction of this flow (for NAT return traffic)."""
        return FlowKey(self.dst_ip, self.src_ip, self.dst_port,
                       self.src_port, self.proto)

    def rss_hash(self) -> int:
        """A stable hash used by NIC receive-side scaling.

        Symmetric in src/dst so both directions of a connection land on
        the same queue, as Toeplitz-based symmetric RSS does.
        """
        lo = (self.src_ip, self.src_port)
        hi = (self.dst_ip, self.dst_port)
        if hi < lo:
            lo, hi = hi, lo
        return hash((lo, hi, self.proto)) & 0x7FFFFFFF

    def __str__(self):
        return (f"{format_ip(self.src_ip)}:{self.src_port}->"
                f"{format_ip(self.dst_ip)}:{self.dst_port}/{self.proto}")


_packet_ids = itertools.count(1)

#: A :class:`PidBitmap` page: 4 KiB holding the bits of 2**15 consecutive
#: packet ids.
_PAGE_SHIFT = 15
_PAGE_BYTES = 1 << (_PAGE_SHIFT - 3)


class PidBitmap:
    """A set of packet ids at one bit per id.

    Ids are handed out in increasing order, so the ones a run releases
    pack densely into 4 KiB ``bytearray`` pages keyed by ``pid >> 15``
    instead of costing a set or dict entry each.  With ``horizon_pages``
    only that many pages, ending at the newest id's page, are kept:
    older pages are dropped when a newer one opens, and an id below
    them reads as absent and is not stored.  Without it nothing is ever
    forgotten.
    """

    __slots__ = ("_pages", "_horizon", "_newest_page")

    def __init__(self, horizon_pages: Optional[int] = None):
        self._pages: Dict[int, bytearray] = {}
        self._horizon = horizon_pages
        self._newest_page: Optional[int] = None

    def add(self, pid: int) -> bool:
        """Insert ``pid``; return whether it was already present."""
        key = pid >> _PAGE_SHIFT
        page = self._pages.get(key)
        if page is None:
            page = self._open(key)
            if page is None:
                return False
        index = (pid >> 3) & (_PAGE_BYTES - 1)
        byte = page[index]
        bit = 1 << (pid & 7)
        if byte & bit:
            return True
        page[index] = byte | bit
        return False

    def _open(self, key: int) -> Optional[bytearray]:
        horizon = self._horizon
        if horizon is not None:
            newest = self._newest_page
            if newest is not None and key <= newest - horizon:
                return None
            if newest is None or key > newest:
                self._newest_page = key
                for old in [k for k in self._pages if k <= key - horizon]:
                    del self._pages[old]
        page = self._pages[key] = bytearray(_PAGE_BYTES)
        return page


@dataclass(slots=True)
class Packet:
    """A unit of traffic traversing the simulated network.

    Attributes:
        flow: the packet's 5-tuple.
        size: payload + header bytes on the wire, *excluding* any
            protocol attachments.
        kind: ``"data"`` for normal traffic or ``"propagating"`` for
            FTC's state-propagation packets (§5.1), which replicas do
            not hand to middleboxes.
        attachments: structured protocol metadata (piggyback messages,
            PALs, ...) keyed by protocol name; each value must expose a
            ``byte_size()`` method.
        created_at: virtual time the generator emitted the packet.
        meta: free-form annotations (latency timestamps, experiment tags).
    """

    flow: FlowKey
    size: int = 256
    kind: str = "data"
    pid: int = field(default_factory=lambda: next(_packet_ids))
    attachments: Dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def attach(self, key: str, value: Any) -> None:
        self.attachments[key] = value

    def detach(self, key: str) -> Any:
        return self.attachments.pop(key, None)

    def attachment(self, key: str) -> Optional[Any]:
        return self.attachments.get(key)

    @property
    def wire_size(self) -> int:
        """Total bytes on the wire, including attachments.

        Recomputed on every read, never cached: a receiver detaches the
        piggyback message from a packet object that a duplicate or a
        retransmitted frame still references, and the retransmission
        must cost what the packet weighs *then* (PROTOCOL.md §13.4).
        """
        size = self.size
        for value in self.attachments.values():
            size += value.byte_size()
        return size

    @property
    def is_data(self) -> bool:
        return self.kind == "data"

    def clone_headers(self) -> "Packet":
        """A fresh packet with the same flow/size (used by NAT rewrites)."""
        return Packet(flow=self.flow, size=self.size, kind=self.kind,
                      created_at=self.created_at)

    def __repr__(self):
        return f"<Packet #{self.pid} {self.kind} {self.flow} {self.size}B>"
