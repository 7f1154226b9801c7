"""Deterministic memory-budget gate: egress bookkeeping bytes per packet.

Egress bookkeeping (the buffer's duplicate filter, the shadow oracle's
released set and order, the latency samples) grows with every released
packet, and at a fixed seed that growth is a count, not a clock.  It is
read with ``sys.getsizeof`` on the named structures and the objects
they hold, so it is the same on every CPython version: an ``array``
grows by a fixed rule and a bitmap page is 4 KiB.  A ceiling on it
fails a PR that goes back to one Python object per packet id.  The
ceiling sits ~10 % above the count measured when it was last set; lower
it when the count drops.
"""

from __future__ import annotations

import itertools
import sys

from repro.chaos.auditor import ShadowOracle
from repro.core import FTCChain
from repro.metrics.meters import EgressRecorder
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.net import packet as packet_module
from repro.net.packet import PidBitmap
from repro.sim import RandomStreams, Simulator

SEED = 3

#: Measured 16.5 (257.1 with one object per id) when the ceiling was set.
CEILING_BYTES_PER_PACKET = 18


def _held_bytes(obj) -> int:
    """``sys.getsizeof`` of a container plus the objects it holds."""
    if isinstance(obj, PidBitmap):
        return _held_bytes(obj._pages)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(map(sys.getsizeof, itertools.chain(obj, obj.values())))
    elif isinstance(obj, (list, set)):
        size += sum(map(sys.getsizeof, obj))
    return size


def _bookkeeping_bytes_per_packet(monkeypatch) -> float:
    """Ch-2 on raw links at 2e5 pps: growth of the egress bookkeeping
    from the end of a 2 ms warm-up until a 10 ms window has drained,
    per packet released in between."""
    # Ids restart at 1 so the bitmap pages opened inside the window do
    # not depend on how many packets earlier tests made.
    monkeypatch.setattr(packet_module, "_packet_ids", itertools.count(1))
    sim = Simulator()
    egress = EgressRecorder(sim)
    oracle = ShadowOracle(inner=egress, track_order=True)
    chain = FTCChain(sim, ch_n(2, n_threads=2), f=1, deliver=oracle,
                     n_threads=2, seed=SEED, reliable_links=False)
    chain.start()
    generator = TrafficGenerator(
        sim, chain.ingress, rate_pps=2e5, flows=balanced_flows(64, 2),
        packet_size=256, arrivals="poisson", streams=RandomStreams(SEED))

    def held() -> int:
        return sum(map(_held_bytes, (
            chain.buffer._seen_pids, oracle._seen, oracle.order,
            egress.latency.samples)))

    sim.run(until=2e-3)
    held_before, released_before = held(), oracle.released
    sim.run(until=12e-3)
    generator.stop()
    sim.run(until=17e-3)
    assert oracle.released == generator.sent > 2000
    assert oracle.duplicate_releases == oracle.out_of_order == 0
    return (held() - held_before) / (oracle.released - released_before)


def test_egress_bytes_per_packet_stay_under_budget(monkeypatch):
    measured = _bookkeeping_bytes_per_packet(monkeypatch)
    assert measured <= CEILING_BYTES_PER_PACKET, (
        f"Ch-2 raw links: egress bookkeeping grew {measured:.1f} B per "
        f"released packet, budget {CEILING_BYTES_PER_PACKET}")
