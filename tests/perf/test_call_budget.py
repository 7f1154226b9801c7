"""Deterministic call-budget gate (ROADMAP item 1: counts, not wall clock).

Python-level calls per released packet are a pure function of the seed,
so a ceiling on them fails a PR that re-adds a log walk per hop no
matter how noisy the runner is.  Ceilings sit ~10 % above the count
measured when they were last set; lower them when the count drops.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import FTCChain
from repro.middlebox import Gen, Monitor, ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import RandomStreams, Simulator

SEED = 3


def _calls_per_packet(middleboxes, f: int, n_threads: int, reliable: bool,
                      rate_pps: float, window_s: float) -> float:
    sim = Simulator()
    released = 0

    def egress(packet):
        nonlocal released
        released += 1

    chain = FTCChain(sim, middleboxes(), f=f, deliver=egress,
                     n_threads=n_threads, seed=SEED, reliable_links=reliable)
    chain.start()
    generator = TrafficGenerator(
        sim, chain.ingress, rate_pps=rate_pps,
        flows=balanced_flows(64, n_threads), packet_size=256,
        arrivals="poisson", streams=RandomStreams(SEED))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.run(until=window_s)
        generator.stop()
        sim.run(until=window_s + 5e-3)
    finally:
        sys.setprofile(previous)
    assert released == generator.sent > 1500
    return calls / released


# Measured 616.7, 1 616.7 and 752.5 when the ceilings were last set (one
# call per packet fewer once Buffer.handle lost its timing wrapper).  The
# id is the label alone, so a lowered ceiling does not rename a test.
@pytest.mark.parametrize("kwargs, ceiling", [
    pytest.param(
        dict(middleboxes=lambda: ch_n(2, n_threads=2), f=1, n_threads=2,
             reliable=False, rate_pps=2e5, window_s=10e-3),
        679, id="Ch-2 raw links"),
    pytest.param(
        dict(middleboxes=lambda: ch_n(5, n_threads=2), f=2, n_threads=2,
             reliable=True, rate_pps=1e5, window_s=20e-3),
        1784, id="Ch-5 f=2 reliable links"),
    # The contended lock-queue path: nearly every acquisition conflicts
    # and every packet carries a 256 B update.
    pytest.param(
        dict(middleboxes=lambda: [Monitor(sharing_level=8),
                                  Gen(state_size=256)],
             f=1, n_threads=8, reliable=False, rate_pps=3e6,
             window_s=1e-3),
        829, id="Monitor(sharing 8) -> Gen(256 B), 8 threads"),
])
def test_python_calls_per_packet_stay_under_budget(request, kwargs, ceiling):
    measured = _calls_per_packet(**kwargs)
    assert measured <= ceiling, (
        f"{request.node.callspec.id}: {measured:.0f} Python calls per "
        f"released packet, budget {ceiling}")
