"""System factory shared by experiments and benchmarks."""

from __future__ import annotations

from typing import Callable, Sequence

from ..baselines import FTMBChain, NFChain, RemoteStoreChain
from ..core import FTCChain
from ..core.costs import CostModel, DEFAULT_COSTS
from ..middlebox.base import Middlebox
from ..sim import Simulator

__all__ = ["build_system", "SYSTEMS"]

#: System names, in the order the paper's figures list them.
SYSTEMS = ["NF", "FTC", "FTMB", "FTMB+Snapshot"]


def build_system(kind: str, sim: Simulator, middleboxes: Sequence[Middlebox],
                 deliver: Callable, costs: CostModel = DEFAULT_COSTS,
                 n_threads: int = 8, f: int = 1, seed: int = 0, net=None,
                 telemetry=None):
    """Instantiate one of the compared systems over a middlebox list.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is honoured by
    the FTC chain; the baselines ignore it (they carry no piggyback or
    replication machinery worth instrumenting).
    """
    normalized = kind.lower()
    if normalized == "nf":
        return NFChain(sim, middleboxes, deliver=deliver, costs=costs,
                       n_threads=n_threads, seed=seed, net=net)
    if normalized == "ftc":
        return FTCChain(sim, middleboxes, f=f, deliver=deliver, costs=costs,
                        n_threads=n_threads, seed=seed, net=net,
                        telemetry=telemetry)
    if normalized == "ftmb":
        return FTMBChain(sim, middleboxes, deliver=deliver, costs=costs,
                         n_threads=n_threads, seed=seed, net=net)
    if normalized in ("ftmb+snapshot", "ftmb+snap"):
        return FTMBChain(sim, middleboxes, deliver=deliver, costs=costs,
                         n_threads=n_threads, seed=seed, snapshots=True,
                         net=net)
    if normalized in ("remote-store", "statelessnf"):
        return RemoteStoreChain(sim, middleboxes, deliver=deliver,
                                costs=costs, n_threads=n_threads, seed=seed,
                                net=net)
    raise ValueError(f"unknown system {kind!r}; options: "
                     f"{SYSTEMS + ['remote-store']}")
