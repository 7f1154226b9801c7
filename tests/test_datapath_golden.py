"""Data-path golden: seven seeded runs against a committed record.

The data path's decision points -- STM lock wait, wound and commit;
piggyback append, apply and requeue; buffer hold, release, shed and
duplicate drop; channel reset, retransmit, reorder drop and NACK; NIC,
link and network drops; admission shedding -- each write the flight
ring, tracer spans, histograms and perf stage counts.  This test pins,
for each case, the sha256 of the flight dump (metric rows included) and
of the Chrome trace, the flight events per ``(component, kind)``, the
span events per name, the stage calls and the final ``_eid``, so a
refactor of the instrumentation that moves, drops or reorders a single
event fails here.

Together the cases reach every data-path flight kind and span name
(:data:`FLIGHT_KINDS`, :data:`SPAN_NAMES`; checked below):

* ``impaired-ch2``, ``overload-ch3`` and ``chaos-34`` are soak
  schedules: impaired reliable links, a flash crowd against admission
  control, and crashes under the chaos monkey;
* ``crash-reliable-ch3`` crashes a position behind reliable hops, so
  channels reset;
* ``slow-dup-ch2`` runs a 2 MHz CPU behind four-slot NIC queues on
  duplicating raw links: queues overflow, a propagating packet is
  refused and requeued, and duplicates reach the egress;
* ``lossy-flood-ch2`` loses half the frames at 3 Mpps, so out-of-order
  frames overflow the receiver's hold;
* ``contended-lb-gen`` is a load balancer feeding Gen on eight threads
  at 3 Mpps -- lock waits and wounds -- in front of a 32-packet egress
  bound, so the buffer sheds.

Packet, log and lock ids are process-global counters, so the cases run
in one fresh interpreter, always in the same order
(``python tests/test_datapath_golden.py --child`` prints the JSON).

Regenerate -- only when the data path's behaviour is meant to change --
with ``PYTHONPATH=src python tests/test_datapath_golden.py``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "datapath.json"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Every flight event the data path writes; ``net/*`` is one kind per
#: audited drop site.
FLIGHT_KINDS = (
    "stm/lock-wait", "stm/commit", "stm/wound",
    "piggyback/append", "piggyback/apply", "piggyback/requeue",
    "buffer/dup-drop", "buffer/hold", "buffer/shed", "buffer/release",
    "channel/reset", "channel/retransmit", "channel/reorder-drop",
    "channel/nack", "nic/tail-drop", "link/impair-drop", "net/*",
    "admission/shed")

#: Every span the data path writes (``<pos>``/``<mbox>`` vary).
SPAN_NAMES = ("lock-acquire", "critical-section", "wounded",
              "p<pos>:<mbox>", "replicate@p<pos>", "buffer-hold",
              "release")


def _cases() -> dict:
    """Case name -> ``run(telemetry, profiler)``, returning the simulator."""
    from repro.chaos import Scenario, Step, run
    from repro.chaos.soak import (
        SOAK_COSTS,
        chaos_scenario,
        impaired_scenario,
        overload_scenario,
    )

    slow = SOAK_COSTS.with_overrides(cpu_hz=2e6, nic_queue_depth=4)
    scenarios = {
        "impaired-ch2": impaired_scenario(0),
        "overload-ch3": overload_scenario(0),
        "chaos-34": chaos_scenario(seed=34, chain_length=3, f=1, index=34),
        "crash-reliable-ch3": Scenario(
            chain_length=3, f=1, seed=0, costs=SOAK_COSTS,
            duration_s=30e-3, drain_s=30e-3, rate_pps=2e4,
            reliable_links=True, orchestrators=1,
            heartbeat_interval_s=1e-3,
            steps=(Step(10e-3, crash=1, expect="recovered"),)),
        "slow-dup-ch2": Scenario(
            chain_length=2, f=1, seed=0, costs=slow, duration_s=5e-3,
            drain_s=20e-3, rate_pps=2e4, impair=(0.0, 0.1, 0.0, 0.0)),
        "lossy-flood-ch2": impaired_scenario(
            0, drop_rate=0.5, dup_rate=0.0, reorder_rate=0.0,
            corrupt_rate=0.0, rate_pps=3e6, duration_s=1e-3),
    }
    cases = {name: lambda telemetry, profiler, sc=sc: run(
                 sc, telemetry=telemetry, profiler=profiler).sim
             for name, sc in scenarios.items()}
    cases["contended-lb-gen"] = _contended
    return cases


def _contended(telemetry, profiler):
    """Load balancer -> Gen(256 B), 8 threads, 3 Mpps for 1 ms."""
    from repro.core import FTCChain
    from repro.middlebox import Gen
    from repro.middlebox.loadbalancer import LoadBalancer
    from repro.net import TrafficGenerator, balanced_flows
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    sim.profiler = profiler
    chain = FTCChain(sim, [LoadBalancer(), Gen(state_size=256)], f=1,
                     deliver=lambda packet: None, n_threads=8, seed=3,
                     telemetry=telemetry)
    chain.buffer.max_held = 32
    chain.start()
    generator = TrafficGenerator(
        sim, chain.ingress, rate_pps=3e6, flows=balanced_flows(512, 8),
        packet_size=256, arrivals="poisson", streams=RandomStreams(3))
    sim.run(until=1e-3)
    generator.stop()
    sim.run(until=6e-3)
    return sim


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def snapshot(case) -> dict:
    """Run one case under every sink and reduce it to what they saw."""
    from repro.flight import FlightRecorder
    from repro.perf import StageProfiler
    from repro.telemetry import Telemetry

    flight = FlightRecorder(capacity=1 << 20)
    profiler = StageProfiler()
    telemetry = Telemetry(sample_every=7, flight=flight, profiler=profiler)
    sim = case(telemetry, profiler)
    events = collections.Counter(
        f"{e.component}/{e.kind}" for e in flight.events)
    spans = collections.Counter(e["name"] for e in telemetry.tracer.events)
    return {
        "flight_events": dict(sorted(events.items())),
        "spans": dict(sorted(spans.items())),
        "stages": {stage: entry["calls"]
                   for stage, entry in profiler.report().items()},
        "flight_sha256": _sha256(flight.dump(telemetry=telemetry)),
        "trace_sha256": _sha256(telemetry.export_chrome()),
        "final_eid": sim._eid,
    }


def child() -> dict:
    return {name: snapshot(case) for name, case in _cases().items()}


@pytest.fixture(scope="module")
def current() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_match_the_committed_golden(current, golden):
    assert sorted(current) == sorted(golden)
    for name in golden:
        for key in golden[name]:
            assert current[name][key] == golden[name][key], (name, key)


def test_every_data_path_flight_kind_is_reached(golden):
    seen = {event for case in golden.values()
            for event in case["flight_events"]}
    missing = [kind for kind in FLIGHT_KINDS
               if not any(re.fullmatch(kind.replace("*", ".+"), event)
                          for event in seen)]
    assert missing == []


def test_every_data_path_span_is_reached(golden):
    seen = {name for case in golden.values() for name in case["spans"]}
    missing = [span for span in SPAN_NAMES
               if not any(re.fullmatch(re.sub("<[a-z]+>", ".+", span), name)
                          for name in seen)]
    assert missing == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(child(), sort_keys=True))
    else:
        GOLDEN.write_text(json.dumps(child(), indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN}")
