"""Cross-commit determinism: four seeded runs against a committed golden.

Every other determinism check in this repository compares a run with a
second run of the *same* commit.  This one compares against
``tests/golden/determinism.json``, recorded once, so a host-side
optimisation that moves a single event, RNG draw or float added to
``sim.now`` fails here even though the commit still agrees with itself.

The four runs are small versions of the shapes the benchmark drives
(Ch-2 on raw links; Monitor(8) -> Gen(256) on 8 threads; Ch-5 f=2 on
reliable, impaired links; Ch-Rec with a crash and a rescale under a
3-member ensemble), built from public constructors only.

Regenerate -- only when the *model* is meant to change -- with
``PYTHONPATH=src python tests/test_determinism_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct

import pytest

from repro.core import FTCChain
from repro.core.reconfig import ReconfigOp
from repro.middlebox import Gen, Monitor, ch_n, ch_rec
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import ElectionConfig, OrchestratorEnsemble
from repro.sim import RandomStreams, Simulator

GOLDEN = pathlib.Path(__file__).parent / "golden" / "determinism.json"
SEED = 7
N_FLOWS = 64
_RECORD = struct.Struct("<IId")


def _steady(sim, deliver):
    return FTCChain(sim, ch_n(2, n_threads=2), f=1, deliver=deliver,
                    n_threads=2, seed=SEED)


def _contended(sim, deliver):
    return FTCChain(sim, [Monitor(sharing_level=8), Gen(state_size=256)],
                    f=1, deliver=deliver, n_threads=8, seed=SEED)


def _lossy(sim, deliver):
    return FTCChain(sim, ch_n(5, n_threads=2), f=2, deliver=deliver,
                    n_threads=2, seed=SEED, reliable_links=True)


def _failover(sim, deliver):
    return FTCChain(sim, ch_rec(n_threads=2), f=1, deliver=deliver,
                    n_threads=2, seed=SEED, reliable_links=True)


def _arm_lossy(sim, chain, window):
    chain.net.impair_data(seed=SEED, drop_rate=0.02, dup_rate=0.01,
                          reorder_rate=0.01, corrupt_rate=0.005)


def _arm_failover(sim, chain, window):
    ensemble = OrchestratorEnsemble(
        sim, chain, n=3,
        election=ElectionConfig(lease_s=6e-3, renew_every_s=2e-3,
                                candidacy_base_s=2e-3))
    ensemble.start()
    rescale = ReconfigOp(kind="rescale", position=2, n_threads=4)
    sim.schedule_callback(0.3 * window, lambda: chain.fail_position(1))
    sim.schedule_callback(0.7 * window,
                          lambda: ensemble.request_reconfig(rescale))
    return ensemble


#: name -> (chain builder, arm, rate pps, worker threads, window s, drain s)
RUNS = {
    "steady-ch2": (_steady, None, 2e5, 2, 10e-3, 5e-3),
    "contended-gen": (_contended, None, 3.0e6, 8, 0.6e-3, 5e-3),
    "lossy-ch5-f2": (_lossy, _arm_lossy, 1e5, 2, 15e-3, 30e-3),
    "failover-ch3": (_failover, _arm_failover, 2e4, 2, 60e-3, 30e-3),
}


def snapshot(name: str) -> dict:
    """Run one workload and reduce it to what must never move."""
    build, arm, rate_pps, n_threads, window, drain = RUNS[name]
    sim = Simulator()
    flows = balanced_flows(N_FLOWS, n_threads)
    flow_index = {flow: i for i, flow in enumerate(flows)}
    next_ordinal = [0] * len(flows)
    digest = hashlib.blake2b(digest_size=16)
    released = 0

    def egress(packet):
        nonlocal released
        released += 1
        digest.update(_RECORD.pack(*packet.meta["golden"], sim.now))

    chain = build(sim, egress)
    chain.start()
    ensemble = arm(sim, chain, window) if arm is not None else None

    def ingress(packet):
        # Packet ids are process-global; (flow, per-flow ordinal) is not.
        flow = flow_index[packet.flow]
        packet.meta["golden"] = (flow, next_ordinal[flow])
        next_ordinal[flow] += 1
        chain.ingress(packet)

    generator = TrafficGenerator(
        sim, ingress, rate_pps=rate_pps, flows=flows, packet_size=256,
        arrivals="poisson", streams=RandomStreams(SEED))
    sim.run(until=window)
    generator.stop()
    chain.net.clear_data_impairment()
    sim.run(until=window + drain)
    if ensemble is not None:
        ensemble.stop()

    managers = {}
    for replica in chain.replicas:
        if replica.runtime is not None:
            manager = replica.runtime.manager
            stats = manager.lock_stats
            managers[manager.name] = {
                "committed": manager.committed,
                "acquisitions": stats.acquisitions,
                "conflicts": stats.conflicts,
                "wounds": stats.wounds,
                "wait_time": stats.wait_time,
            }
    return {
        "offered": generator.sent,
        "released": released,
        "digest": digest.hexdigest(),
        "channel_stats": chain.channel_stats(),
        "managers": managers,
        "final_eid": sim._eid,
    }


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_the_committed_golden(name):
    golden = json.loads(GOLDEN.read_text())
    # Through JSON so both sides carry the same types; floats survive
    # the round trip exactly (repr is shortest-exact).
    assert json.loads(json.dumps(snapshot(name))) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: snapshot(name) for name in RUNS},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
