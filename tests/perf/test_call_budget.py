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
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.sim import RandomStreams, Simulator

SEED = 3


def _calls_per_packet(chain_length: int, f: int, reliable: bool,
                      rate_pps: float, window_s: float) -> float:
    sim = Simulator()
    released = 0

    def egress(packet):
        nonlocal released
        released += 1

    chain = FTCChain(sim, ch_n(chain_length, n_threads=2), f=f,
                     deliver=egress, n_threads=2, seed=SEED,
                     reliable_links=reliable)
    chain.start()
    generator = TrafficGenerator(
        sim, chain.ingress, rate_pps=rate_pps, flows=balanced_flows(64, 2),
        packet_size=256, arrivals="poisson", streams=RandomStreams(SEED))
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


@pytest.mark.parametrize("label, kwargs, ceiling", [
    ("Ch-2 raw links",
     dict(chain_length=2, f=1, reliable=False, rate_pps=2e5,
          window_s=10e-3), 760),
    ("Ch-5 f=2 reliable links",
     dict(chain_length=5, f=2, reliable=True, rate_pps=1e5,
          window_s=20e-3), 2040),
])
def test_python_calls_per_packet_stay_under_budget(label, kwargs, ceiling):
    measured = _calls_per_packet(**kwargs)
    assert measured <= ceiling, (
        f"{label}: {measured:.0f} Python calls per released packet, "
        f"budget {ceiling}")
