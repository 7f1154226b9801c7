"""Network address translators (Table 1).

*MazuNAT* re-implements the core behaviour of the commercial Mazu
Networks NAT the paper runs (a Click configuration): per-flow lookup
on every packet (read-heavy), a mapping allocation on the first packet
of a flow (moderate writes), connection persistence, and reverse-path
translation.

*SimpleNAT* provides basic NAT functionality only: one flow table,
sequential port allocation.

Both keep the canonical NAT record the paper sizes at roughly 32 B
(§7.2): the two IPv4/port pairs plus a flow identifier.
"""

from __future__ import annotations

from ..net.packet import FlowKey, Packet, ip
from ..stm.transaction import TransactionContext
from .base import DROP, Middlebox, Verdict

__all__ = ["MazuNAT", "SimpleNAT"]

#: Serialized size of one NAT mapping record (paper §7.2: ~32 B).
NAT_RECORD_BYTES = 32


class MazuNAT(Middlebox):
    """Core of a commercial NAT: translate internal flows to a public IP.

    State layout (all in the middlebox's FTC state store):

    * ``("fwd", flow)``   -> allocated external source port
    * ``("rev", ext_flow)`` -> original internal flow (return path)
    * ``"next_port"``     -> allocation cursor
    """

    def __init__(self, name: str = "mazunat",
                 external_ip: str = "203.0.113.1",
                 internal_prefix: str = "10.",
                 first_port: int = 10000, last_port: int = 60000,
                 processing_cycles=None):
        super().__init__(name, processing_cycles)
        self.external_ip = ip(external_ip)
        self.internal_prefix = internal_prefix
        self.first_port = first_port
        self.last_port = last_port

    def _is_internal(self, packet: Packet) -> bool:
        from ..net.packet import format_ip
        return format_ip(packet.flow.src_ip).startswith(self.internal_prefix)

    def process(self, packet: Packet, ctx: TransactionContext) -> Verdict:
        self.count_packet(ctx)
        if self._is_internal(packet):
            return self._outbound(packet, ctx)
        return self._inbound(packet, ctx)

    def _outbound(self, packet: Packet, ctx: TransactionContext) -> Verdict:
        flow = packet.flow
        port = ctx.read(("fwd", flow))
        if port is None:
            port = self._allocate(flow, ctx)
            if port is None:
                self.count_drop(ctx)
                return DROP  # port pool exhausted
        translated = packet.clone_headers()
        translated.flow = FlowKey(self.external_ip, flow.dst_ip,
                                  port, flow.dst_port, flow.proto)
        translated.meta.update(packet.meta)
        translated.pid = packet.pid
        return translated

    def _inbound(self, packet: Packet, ctx: TransactionContext) -> Verdict:
        key = ("rev", packet.flow.reversed())
        original = ctx.read(key)
        if original is None:
            self.count_drop(ctx)
            return DROP  # unsolicited inbound traffic
        translated = packet.clone_headers()
        translated.flow = original.reversed()
        translated.meta.update(packet.meta)
        translated.pid = packet.pid
        return translated

    def _allocate(self, flow: FlowKey, ctx: TransactionContext):
        cursor = ctx.read("next_port", self.first_port)
        if cursor > self.last_port:
            return None
        ctx.write("next_port", cursor + 1)
        external_flow = FlowKey(self.external_ip, flow.dst_ip,
                                cursor, flow.dst_port, flow.proto)
        ctx.write(("fwd", flow), cursor)
        ctx.write(("rev", external_flow), flow)
        return cursor

    def describe(self) -> str:
        return "MazuNAT: reads per packet, writes per flow (shared table)"


class SimpleNAT(Middlebox):
    """Basic NAT: one table, first-touch port assignment, no reverse path."""

    def __init__(self, name: str = "simplenat",
                 external_ip: str = "203.0.113.2",
                 first_port: int = 20000, processing_cycles=None):
        super().__init__(name, processing_cycles)
        self.external_ip = ip(external_ip)
        self.first_port = first_port

    def process(self, packet: Packet, ctx: TransactionContext) -> Verdict:
        self.count_packet(ctx)
        flow = packet.flow
        port = ctx.read(("map", flow))
        if port is None:
            cursor = ctx.read("next_port", self.first_port)
            ctx.write("next_port", cursor + 1)
            ctx.write(("map", flow), cursor)
            port = cursor
        translated = packet.clone_headers()
        translated.flow = FlowKey(self.external_ip, flow.dst_ip,
                                  port, flow.dst_port, flow.proto)
        translated.meta.update(packet.meta)
        translated.pid = packet.pid
        return translated

    def describe(self) -> str:
        return "SimpleNAT: reads per packet, writes per flow"
