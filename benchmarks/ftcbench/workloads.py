"""The four workloads, one repeat of any of them, and its gates.

Every workload offers an open-loop, seeded Poisson stream (the
package's own ``TrafficGenerator``: 256 B packets round-robin over 64
flows) at a fixed simulated rate for a fixed simulated window, then
drains.  The work is fixed, not the time: for a given seed and window
the packet stream, every simulated outcome and the release digest
repeat exactly, on any commit whose model is unchanged.

The harness sees the chain only through public constructors
(:mod:`surface`), an ingress shim in front of ``FTCChain.ingress`` and
its own callable behind ``ShadowOracle`` at the egress.
"""

from __future__ import annotations

import hashlib
import struct
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional

__all__ = ["WORKLOADS", "Workload", "Rig", "build", "run_repeat",
           "first_offer", "FAULTS"]

PACKET_BYTES = 256
N_FLOWS = 64

#: Share of the traffic window treated as model warm-up: latency
#: samples start after it, and the traced repeat starts keeping full
#: span records after it.
WARMUP_SHARE = 0.05

#: Engine steps after the warm-up whose spans are kept in full.
RECORDED_STEPS = 2000

#: The lease timing the failover workload runs its control plane on:
#: tight enough that a crash is detected and repaired well inside the
#: window, loose enough that a renewal round never starves a healthy
#: leader.  The benchmark's own numbers, deliberately not imported.
ELECTION = dict(lease_s=6e-3, renew_every_s=2e-3, candidacy_base_s=2e-3)

#: Packets a crash may cost, as a multiple of (offered rate x longest
#: release gap): Poisson noise on ~500 arrivals plus packets in flight.
LOSS_ALLOWANCE = 1.5

#: Data-plane impairment of ``lossy-ch5-f2``.
IMPAIRMENT = dict(drop_rate=0.02, dup_rate=0.01, reorder_rate=0.01,
                  corrupt_rate=0.005)


class Workload(NamedTuple):
    """One workload's load and sizing; why each is here is recorded
    once, in ``BENCHMARK.json`` (and at length in README.md)."""

    name: str
    rate_pps: float
    n_threads: int
    #: Simulated seconds of traffic one host second buys on the seed
    #: commit (CPython 3.11, this sandbox).  ``--seconds`` is turned
    #: into a traffic window with this, so five repeats fill it.
    window_per_host_s: float
    #: Shortest window on which the scripted timeline still fits.
    min_window_s: float
    drain_s: float
    chain: Callable[..., Any]
    #: ``arm(api, sim, chain, seed, window)``: install impairment, a
    #: control plane, scripted faults; returns the ensemble, if any.
    arm: Callable[..., Any] = lambda api, sim, chain, seed, window: None
    #: True where the injected crash is expected to cost packets.
    expects_loss: bool = False


def _steady_chain(api, sim, deliver, seed):
    return api.FTCChain(sim, api.ch_n(2, n_threads=2), f=1, deliver=deliver,
                        n_threads=2, seed=seed)


def _contended_chain(api, sim, deliver, seed):
    return api.FTCChain(
        sim, [api.Monitor(sharing_level=8), api.Gen(state_size=256)], f=1,
        deliver=deliver, n_threads=8, seed=seed)


def _lossy_chain(api, sim, deliver, seed):
    return api.FTCChain(sim, api.ch_n(5, n_threads=2), f=2, deliver=deliver,
                        n_threads=2, seed=seed, reliable_links=True)


def _failover_chain(api, sim, deliver, seed):
    return api.FTCChain(sim, api.ch_rec(n_threads=2), f=1, deliver=deliver,
                        n_threads=2, seed=seed, reliable_links=True)


def _arm_lossy(api, sim, chain, seed, window):
    chain.net.impair_data(seed=seed, **IMPAIRMENT)


def _arm_failover(api, sim, chain, seed, window):
    ensemble = api.OrchestratorEnsemble(
        sim, chain, n=3, election=api.ElectionConfig(**ELECTION))
    ensemble.start()
    rescale = api.ReconfigOp(kind="rescale", position=2, n_threads=4)
    sim.schedule_callback(0.3 * window, lambda: chain.fail_position(1))
    sim.schedule_callback(0.7 * window,
                          lambda: ensemble.request_reconfig(rescale))
    return ensemble


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "steady-ch2",
        rate_pps=2e5, n_threads=2, window_per_host_s=0.0228,
        min_window_s=5e-3, drain_s=5e-3, chain=_steady_chain),
    Workload(
        "contended-gen",
        rate_pps=3.0e6, n_threads=8, window_per_host_s=0.00128,
        min_window_s=0.4e-3, drain_s=5e-3, chain=_contended_chain),
    Workload(
        "lossy-ch5-f2",
        rate_pps=1e5, n_threads=2, window_per_host_s=0.0163,
        min_window_s=5e-3, drain_s=30e-3, chain=_lossy_chain,
        arm=_arm_lossy),
    Workload(
        "failover-ch3",
        rate_pps=5e4, n_threads=2, window_per_host_s=0.0734,
        min_window_s=60e-3, drain_s=30e-3, chain=_failover_chain,
        arm=_arm_failover, expects_loss=True),
)}


# -- the harness's two ends of the chain ------------------------------------------

_RECORD = struct.Struct("<IId")


class Ingress:
    """Sink of the traffic generator: numbers each packet within its
    flow (the process-global ``pid`` differs between repeats; flow and
    ordinal do not), then hands it to the chain."""

    def __init__(self, forward: Callable, flows):
        self.forward = forward
        self.flow_index = {flow: i for i, flow in enumerate(flows)}
        self.next_ordinal = [0] * len(flows)
        self.offered = 0

    def __call__(self, packet) -> None:
        flow = self.flow_index[packet.flow]
        packet.meta["ftcbench"] = (flow, self.next_ordinal[flow])
        self.next_ordinal[flow] += 1
        self.offered += 1
        self.forward(packet)


class Egress:
    """Behind the oracle: streams (flow, ordinal, release time) into a
    digest, keeps release instants for the gap statistics, and feeds
    the package's ``EgressRecorder``.  Packets are never retained."""

    def __init__(self, sim, recorder):
        self.sim = sim
        self.recorder = recorder
        self.digest = hashlib.blake2b(digest_size=16)
        self.release_times: List[float] = []

    def __call__(self, packet) -> None:
        now = self.sim.now
        flow, ordinal = packet.meta["ftcbench"]
        self.digest.update(_RECORD.pack(flow, ordinal, now))
        self.release_times.append(now)
        self.recorder(packet)


class DuplicateOnce:
    """Self-test fault: releases the 100th packet twice, which the
    oracle must catch (proves the gate can fail)."""

    def __init__(self, deliver: Callable):
        self.deliver = deliver
        self.seen = 0

    def __call__(self, packet) -> None:
        self.seen += 1
        self.deliver(packet)
        if self.seen == 100:
            self.deliver(packet)


#: ``--inject-fault`` choices -> wrapper around the chain's ``deliver``.
FAULTS: Dict[str, Callable] = {"dup-egress": DuplicateOnce}


# -- one repeat ---------------------------------------------------------------------

class Rig(SimpleNamespace):
    """The live objects of one repeat."""


def build(workload: Workload, api, seed: int, window: float,
          tracer=None, fault: Optional[str] = None) -> Rig:
    """Chain built and started, control plane and faults armed, traffic
    generator created -- everything up to the first ``sim.run``."""
    sim = api.Simulator()
    recorder = api.EgressRecorder(sim)
    recorder.latency.start_after(WARMUP_SHARE * window)
    egress = Egress(sim, recorder)
    oracle = api.ShadowOracle(inner=egress, track_order=True)
    deliver: Callable = oracle
    if fault is not None:
        deliver = FAULTS[fault](deliver)
    if tracer is not None:
        deliver = tracer.wrap(deliver, "harness", "egress")
    chain = workload.chain(api, sim, deliver, seed)
    chain.start()

    ensemble = workload.arm(api, sim, chain, seed, window)

    auditor = api.InvariantAuditor(
        chain, oracle, orchestrator=ensemble,
        context={"workload": workload.name, "seed": seed})
    flows = api.balanced_flows(N_FLOWS, workload.n_threads)
    ingress = Ingress(chain.ingress, flows)
    sink = ingress if tracer is None else tracer.wrap(ingress, "harness",
                                                      "ingress")
    generator = api.TrafficGenerator(
        sim, sink, rate_pps=workload.rate_pps, flows=flows,
        packet_size=PACKET_BYTES, arrivals="poisson",
        streams=api.RandomStreams(seed))
    return Rig(sim=sim, chain=chain, ensemble=ensemble, oracle=oracle,
               auditor=auditor, recorder=recorder, ingress=ingress,
               egress=egress, generator=generator)


def first_offer(workload: Workload, api, seed: int, window: float) -> None:
    """Set-up probe: build, start, and step until the first packet is
    offered to the chain."""
    rig = build(workload, api, seed, window)
    while not rig.ingress.offered:
        rig.sim.step()


def run_repeat(workload: Workload, api, seed: int, window: float,
               tracer=None, fault: Optional[str] = None) -> Dict[str, Any]:
    """One repeat: build, offer for ``window`` simulated seconds, drain,
    audit.  Returns host timings, simulated outcomes, seed-exact
    counters and the list of failed gates (empty when correct).

    The host clock runs from the start of the run loop -- whose first
    event is the generator's first offer -- to the end of the drain.
    """
    rig = build(workload, api, seed, window, tracer, fault)
    sim = rig.sim
    if tracer is not None:
        tracer.reset()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    sim.run(until=WARMUP_SHARE * window)
    if tracer is not None:
        tracer.record_steps(RECORDED_STEPS)
    sim.run(until=window)
    rig.generator.stop()
    # Heal before the runway so retransmission tails converge (a no-op
    # on the workloads that installed no impairment).
    rig.chain.net.clear_data_impairment()
    sim.run(until=window + workload.drain_s)
    wall1 = time.perf_counter()
    cpu1 = time.process_time()
    if rig.ensemble is not None:
        rig.ensemble.stop()

    offered, released = rig.generator.sent, rig.oracle.released
    result: Dict[str, Any] = {
        "offered": offered,
        "released": released,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "digest": rig.egress.digest.hexdigest(),
        "sim": _simulated(rig, window, offered, released),
        "counters": _counters(rig, released),
    }
    result["violations"] = _gates(workload, rig, result)
    # Packets the chain mishandled.  What an injected crash costs is a
    # measured outcome (``delivered_share``), not a failed operation.
    result["failed_packets"] = (
        rig.oracle.duplicate_releases + rig.oracle.out_of_order
        + (0 if workload.expects_loss else offered - released))
    return result


# -- simulated-time outcomes --------------------------------------------------------

def _gap_statistics(times: List[float], window: float,
                    share: float = 0.01) -> Dict[str, float]:
    """Release gaps inside the traffic window.

    ``outage``: the no-release gap a user arriving at a random instant
    of the window finds themselves in, 99th percentile -- the longest
    G such that gaps of at least G cover ``share`` of the window.  It
    equals the longest gap whenever that gap is over 1% of the window
    (any real outage), and on a healthy chain is set by ~40 ordinary
    gaps rather than by the single longest one, so it is steady across
    seeds where the raw maximum is an extreme-value statistic.
    """
    inside = [t for t in times if t <= window]
    if len(inside) < 2:
        return {"outage": window, "longest": window}
    gaps = [b - a for a, b in zip(inside, inside[1:])]
    gaps.append(window - inside[-1])
    gaps.sort(reverse=True)
    need = share * (window - inside[0])
    covered = 0.0
    outage = gaps[-1]
    for gap in gaps:
        covered += gap
        if covered >= need:
            outage = gap
            break
    return {"outage": outage, "longest": gaps[0]}


def _simulated(rig: Rig, window: float, offered: int,
               released: int) -> Dict[str, Any]:
    times = rig.egress.release_times
    gaps = _gap_statistics(times, window)
    latency = rig.recorder.latency
    return {
        "sim_goodput_mpps":
            sum(1 for t in times if t <= window) / window / 1e6,
        "sim_latency_p50_us": latency.percentile_us(50),
        "sim_latency_p99_us": latency.percentile_us(99),
        "sim_outage_ms": gaps["outage"] * 1e3,
        "delivered_share": released / offered if offered else 0.0,
        # Informational (not in BENCHMARK.json):
        "latency_samples": len(latency),
        "longest_gap_ms": gaps["longest"] * 1e3,
        "failed_share": (offered - released) / offered if offered else 1.0,
    }


def _counters(rig: Rig, released: int) -> Dict[str, float]:
    """Per-layer metrics read from public counters: all simulated-side,
    so they repeat exactly for a seed, traced or not."""
    chain, per_pkt = rig.chain, 1.0 / max(released, 1)
    managers = [replica.runtime.manager for replica in chain.replicas
                if replica.runtime is not None]
    committed = sum(m.committed for m in managers)
    channel = chain.channel_stats()
    recoveries = reconfigs = ()
    if rig.ensemble is not None:
        recoveries = [event.report for event in rig.ensemble.history
                      if event.recovered and event.report is not None]
        reconfigs = [report for report in rig.ensemble.reconfig_history
                     if report.committed]
    return {
        # Of the chain's most contended middlebox: a chain-wide ratio
        # would dilute one hot lock with every uncontended manager.
        "stm.conflict_share": max(
            m.lock_stats.conflicts / max(m.lock_stats.acquisitions, 1)
            for m in managers),
        "stm.retries_per_txn":
            sum(m.total_retries for m in managers) / max(committed, 1),
        "stm.lock_wait_us_per_txn":
            sum(m.lock_stats.wait_time for m in managers)
            / max(committed, 1) * 1e6,
        "core.buffer.held_peak": chain.buffer.held_peak,
        "core.buffer.dup_dropped": chain.buffer.duplicates_dropped,
        "core.forwarder.propagating_per_pkt":
            (chain.forwarder.propagating_sent
             + sum(r.propagating_emitted for r in chain.replicas)) * per_pkt,
        "net.nic.rx_dropped":
            sum(server.nic.rx_dropped
                for server in chain.net.servers.values()),
        "net.channel.frames_per_pkt":
            (channel.get("sent", 0)
             + channel.get("retransmissions", 0)) * per_pkt,
        "net.channel.retransmits_per_pkt":
            channel.get("retransmissions", 0) * per_pkt,
        "net.channel.window_stalls": channel.get("window_stalls", 0),
        "orchestration.recoveries": len(recoveries),
        "core.recovery.total_ms": sum(r.total_s for r in recoveries) * 1e3,
        "core.reconfig.total_ms": sum(r.total_s for r in reconfigs) * 1e3,
        "core.reconfig.held_packets":
            sum(r.held_packets for r in reconfigs),
    }


# -- correctness gates ---------------------------------------------------------------

def _gates(workload: Workload, rig: Rig, result: Dict[str, Any]) -> List[str]:
    oracle, failed = rig.oracle, []
    offered, released = result["offered"], result["released"]
    if released <= 0:
        failed.append("nothing was released")
    if oracle.duplicate_releases:
        failed.append(f"{oracle.duplicate_releases} duplicate releases")
    if oracle.out_of_order:
        failed.append(f"{oracle.out_of_order} per-flow reorderings")
    failed += [str(v) for v in rig.auditor.audit(quiescent=True)]
    counters = result["counters"]
    if workload.expects_loss:
        if counters["orchestration.recoveries"] != 1:
            failed.append(f"{counters['orchestration.recoveries']} completed "
                          "recoveries, expected exactly 1")
        if not counters["core.reconfig.total_ms"] > 0:
            failed.append("the rescale did not commit")
        # The crash may cost the packets offered while the chain was
        # dark (plus those in flight), and no more.
        outage_s = result["sim"]["longest_gap_ms"] * 1e-3
        allowance = LOSS_ALLOWANCE * workload.rate_pps * outage_s
        if not 0 < offered - released <= allowance:
            failed.append(
                f"lost {offered - released} of {offered} packets; a "
                f"{outage_s * 1e3:.2f} ms outage accounts for at most "
                f"{allowance:.0f}")
    elif released != offered:
        failed.append(f"released {released} of {offered} offered packets "
                      "on a workload with no injected crash")
    return failed
