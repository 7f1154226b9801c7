"""System factory shared by experiments and benchmarks."""

from __future__ import annotations

from typing import Callable, Sequence

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
                 telemetry=None, **ftc_options):
    """Instantiate one of the compared systems over a middlebox list.

    ``telemetry`` and ``ftc_options`` (``reliable_links``,
    ``admission``, ``use_htm``) are the FTC chain's; the baselines
    ignore ``telemetry`` (no piggyback or replication machinery worth
    instrumenting) and refuse any FTC option set."""
    normalized = kind.lower()
    if normalized == "ftc":
        return FTCChain(sim, middleboxes, f=f, deliver=deliver, costs=costs,
                        n_threads=n_threads, seed=seed, net=net,
                        telemetry=telemetry, **ftc_options)
    given = [name for name, value in ftc_options.items() if value]
    if given:
        raise ValueError(f"{', '.join(given)} need system ftc (got {kind})")
    # Imported here: an FTC run never loads the baselines.
    from .. import baselines
    common = dict(deliver=deliver, costs=costs, n_threads=n_threads,
                  seed=seed, net=net)
    if normalized == "nf":
        return baselines.NFChain(sim, middleboxes, **common)
    if normalized in ("ftmb", "ftmb+snapshot"):
        return baselines.FTMBChain(sim, middleboxes,
                                   snapshots=normalized != "ftmb", **common)
    raise ValueError(f"unknown system {kind!r}; options: {SYSTEMS}")
