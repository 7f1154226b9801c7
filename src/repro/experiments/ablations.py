"""Ablations of FTC's design choices (§3.2, §4.3).

Three of the paper's design arguments, isolated:

* **Dependency vectors vs a single sequence number** (§4.3): with one
  state partition, every transaction conflicts at the head and
  replication is totally ordered -- multithreaded scaling dies.
* **In-chain replication vs dedicated replicas** (§3.2): server count
  for a chain of n middleboxes at replication factor f+1.
* **State piggybacking vs separate replication messages** (§3.2):
  separate messages consume NIC packet-engine slots exactly like
  FTMB's PALs.
"""

from __future__ import annotations

from ..chaos.scenario import mbox
from ..core.costs import DEFAULT_COSTS
from .runner import (ExperimentResult, latency_under_load, measure,
                     saturation_throughput)

__all__ = ["run_depvec", "run_server_cost", "run_piggybacking",
           "run_htm", "run"]


def run_depvec(n_threads: int = 8, seed: int = 0) -> ExperimentResult:
    """Partial order (many partitions) vs total order (one partition)."""
    result = ExperimentResult(
        experiment="Ablation: dependency vectors vs total ordering "
                    "(Monitor, 8 threads, sharing level 1)",
        headers=["State partitions", "FTC throughput (Mpps)"])
    chain = (mbox("monitor", name="mon", sharing_level=1,
                  n_threads=n_threads),)
    for partitions in (1, 2, 4, DEFAULT_COSTS.n_partitions):
        mpps = measure(saturation_throughput(
            "ftc", chain,
            costs=DEFAULT_COSTS.with_overrides(n_partitions=partitions),
            threads=n_threads, seed=seed)).throughput.rate_mpps()
        result.add(partitions, round(mpps, 2))
    result.notes.append(
        "One partition = §4.3's single sequence number: all transactions "
        "serialize at the head even with disjoint state.")
    return result


def run_server_cost(max_length: int = 5, f: int = 1) -> ExperimentResult:
    """§3.2's replica-count argument, as deployed by this library."""
    result = ExperimentResult(
        experiment=f"Ablation: servers needed for a chain (f={f})",
        headers=["Chain length", "FTC", "Dedicated replicas (n*(f+1))",
                 "Consensus (n*(2f+1))", "FTMB as built (3n)"])
    for n in range(2, max_length + 1):
        result.add(n, max(n, f + 1), n * (f + 1), n * (2 * f + 1), 3 * n)
    result.notes.append(
        "FTC reuses the n chain servers as replicas; every alternative "
        "multiplies server count by the replication factor.")
    return result


def run_piggybacking(n_threads: int = 8, seed: int = 0) -> ExperimentResult:
    """Piggybacked state vs per-packet replication messages."""
    result = ExperimentResult(
        experiment="Ablation: piggybacking vs separate replication messages",
        headers=["Design", "Throughput (Mpps)", "Latency at 2 Mpps (us)"])

    chain = (mbox("monitor", name="mon", sharing_level=1,
                  n_threads=n_threads),)
    for label, kind in (("FTC (piggybacked)", "ftc"),
                        ("Separate messages (FTMB-style)", "ftmb")):
        mpps = measure(saturation_throughput(
            kind, chain, threads=n_threads,
            seed=seed)).throughput.rate_mpps()
        latency = measure(latency_under_load(
            kind, chain, rate_pps=2e6, threads=n_threads,
            seed=seed)).latency.mean_us()
        result.add(label, round(mpps, 2), round(latency, 1))
    return result


def run_htm(seed: int = 0) -> ExperimentResult:
    """§3.2: hybrid transactional memory vs pure 2PL, single thread.

    With one thread there is no contention, so every transaction takes
    the HTM fast path and saves (locking - htm_commit) cycles.
    """
    result = ExperimentResult(
        experiment="Ablation: hybrid TM fast path (Monitor, 1 thread)",
        headers=["Mode", "Throughput (Mpps)"])
    chain = (mbox("monitor", name="mon", sharing_level=1, n_threads=8),)
    for label, htm in (("2PL locks", False), ("Hybrid HTM", True)):
        egress = measure(saturation_throughput(
            "ftc", chain, warm_s=0.5e-3, window_s=1e-3, threads=1,
            flows=16, htm=htm, seed=seed))
        result.add(label, round(egress.throughput.rate_mpps(), 2))
    result.notes.append(
        "Uncontended transactions elide the lock protocol "
        f"({DEFAULT_COSTS.locking_cycles:.0f} -> "
        f"{DEFAULT_COSTS.htm_commit_cycles:.0f} cycles).")
    return result


def run(seed: int = 0):
    return [run_depvec(seed=seed), run_server_cost(),
            run_piggybacking(seed=seed), run_htm(seed=seed)]


def main() -> None:
    print("\n\n".join(result.render() for result in run()))


if __name__ == "__main__":
    main()
