"""repro -- a reproduction of "Fault Tolerant Service Function Chaining"
(Ghaznavi et al., SIGCOMM 2020).

The package implements the FTC protocol and everything it runs on:

* :mod:`repro.sim` -- deterministic discrete-event simulation engine.
* :mod:`repro.net` -- packets, flows, links, multi-queue NICs, servers,
  traffic generation.
* :mod:`repro.stm` -- software transactional memory: partitioned state,
  two-phase locking, wound-wait.
* :mod:`repro.middlebox` -- the middlebox programming model and the
  paper's Table 1 functions (MazuNAT, SimpleNAT, Monitor, Gen, Firewall).
* :mod:`repro.core` -- FTC itself: piggyback logs, dependency vectors,
  in-chain replication, forwarder/buffer, failure recovery.
* :mod:`repro.baselines` -- NF, FTMB, FTMB+Snapshot.
* :mod:`repro.orchestration` -- orchestrator, heartbeat failure
  detection, multi-region cloud model, placement.
* :mod:`repro.chaos` -- fault-injection plans, the chaos monkey,
  invariant auditing, and the randomized soak harness.
* :mod:`repro.metrics` -- throughput/latency meters and statistics.
* :mod:`repro.telemetry` -- opt-in chain-wide observability: metric
  registry, sampled per-packet Chrome traces, recovery timelines.
* :mod:`repro.flight` -- causal flight recorder, ``repro explain``,
  SLO watchdog and the markdown run report.
* :mod:`repro.perf` -- per-stage call counter and six scenarios whose
  exact counts the data-path golden pins; ``repro perf profile``.
* :mod:`repro.experiments` -- regeneration of every evaluation table
  and figure.

Quickstart::

    from repro.sim import Simulator
    from repro.net import TrafficGenerator, balanced_flows
    from repro.metrics import EgressRecorder
    from repro.middlebox import ch_rec
    from repro.core import FTCChain

    sim = Simulator()
    egress = EgressRecorder(sim)
    chain = FTCChain(sim, ch_rec(), f=1, deliver=egress)
    chain.start()
    TrafficGenerator(sim, chain.ingress, rate_pps=1e6,
                     flows=balanced_flows(16, 8), count=10_000)
    sim.run(until=0.05)
    print(chain.total_released(), egress.latency.mean_us())

Every package ``__init__`` is a table of public name -> defining
submodule (:mod:`repro._lazy`): importing a package loads nothing, and
the first read of a name imports exactly the module that defines it.
"""

from ._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "core": ("CostModel", "DEFAULT_COSTS", "FTCChain", "recover_positions"),
    "metrics": ("EgressRecorder",),
    "middlebox": (
        "DROP", "Firewall", "Gen", "MazuNAT", "Middlebox", "Monitor", "PASS",
        "SimpleNAT", "ch_gen", "ch_n", "ch_rec",
    ),
    "net": ("FlowKey", "Packet", "TrafficGenerator", "balanced_flows"),
    "orchestration": ("CloudNetwork", "Orchestrator", "place_chain"),
    "sim": ("Simulator",),
})

__version__ = "1.0.0"
