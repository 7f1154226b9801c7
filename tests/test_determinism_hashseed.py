"""Cross-hash-seed determinism: one seeded run under two PYTHONHASHSEEDs.

``str`` hashes are salted per process, so anything on the data plane
that iterates a ``set`` of names (or keys a decision on ``hash()``)
makes a run depend on ``PYTHONHASHSEED`` -- invisibly to every
same-process determinism check, and to the committed golden whenever
the order happens not to reach the digest.  This test runs the golden
suite's Ch-5 f=2 shape (reliable, impaired links) in two fresh
interpreters with different hash seeds and requires them to agree on
everything the golden pins, plus -- with telemetry on -- the exported
trace, byte for byte.

``python tests/test_determinism_hashseed.py`` is the child: it prints
one JSON object and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import subprocess
import sys

SEED = 7
N_FLOWS = 64
RATE_PPS = 1e5
WINDOW_S = 15e-3
DRAIN_S = 30e-3
_RECORD = struct.Struct("<IId")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run(telemetry) -> dict:
    from repro.core import FTCChain
    from repro.middlebox import ch_n
    from repro.net import TrafficGenerator, balanced_flows
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    flows = balanced_flows(N_FLOWS, 2)
    flow_index = {flow: i for i, flow in enumerate(flows)}
    next_ordinal = [0] * len(flows)
    digest = hashlib.blake2b(digest_size=16)
    released = 0

    def egress(packet):
        nonlocal released
        released += 1
        digest.update(_RECORD.pack(*packet.meta["golden"], sim.now))

    chain = FTCChain(sim, ch_n(5, n_threads=2), f=2, deliver=egress,
                     n_threads=2, seed=SEED, reliable_links=True,
                     telemetry=telemetry)
    chain.start()
    chain.net.impair_data(seed=SEED, drop_rate=0.02, dup_rate=0.01,
                          reorder_rate=0.01, corrupt_rate=0.005)

    def ingress(packet):
        flow = flow_index[packet.flow]
        packet.meta["golden"] = (flow, next_ordinal[flow])
        next_ordinal[flow] += 1
        chain.ingress(packet)

    generator = TrafficGenerator(
        sim, ingress, rate_pps=RATE_PPS, flows=flows, packet_size=256,
        arrivals="poisson", streams=RandomStreams(SEED))
    sim.run(until=WINDOW_S)
    generator.stop()
    chain.net.clear_data_impairment()
    sim.run(until=WINDOW_S + DRAIN_S)
    return {
        "offered": generator.sent,
        "released": released,
        "digest": digest.hexdigest(),
        "channel_stats": chain.channel_stats(),
        "final_eid": sim._eid,
    }


def child() -> dict:
    from repro.telemetry import Telemetry

    plain = _run(None)
    telemetry = Telemetry(sample_every=7)
    traced = _run(telemetry)
    trace = json.dumps(telemetry.export_chrome(), sort_keys=True)
    traced["trace_events"] = trace.count('"ph"')
    traced["trace_blake2b"] = hashlib.blake2b(
        trace.encode(), digest_size=16).hexdigest()
    return {"hash_of_a": hash("a"), "plain": plain, "traced": traced}


def _under_hash_seed(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, __file__], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    return json.loads(done.stdout)


def test_two_hash_seeds_agree_on_everything_the_golden_pins():
    one, two = _under_hash_seed(1), _under_hash_seed(2)
    # The two interpreters really did salt strings differently.
    assert one.pop("hash_of_a") != two.pop("hash_of_a")
    assert one["plain"]["released"] == one["plain"]["offered"] > 1000
    assert one["traced"]["trace_events"] > 1000
    assert one["plain"] == two["plain"]
    assert one["traced"] == two["traced"]


if __name__ == "__main__":
    print(json.dumps(child()))
