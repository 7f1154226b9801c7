"""Per-stage call counts for the hot path (PROTOCOL.md §13).

The data plane is a Python object dance: every simulated packet pays
for engine event dispatch, an STM commit, dependency-vector merges,
piggyback append/trim, channel framing, buffer hold/release, and an
admission check.  :class:`StageProfiler` counts how often each of those
stages runs.  It keeps no clock: counts are a pure function of the
seed, so a report is exact and two runs of one seed compare byte for
byte.  Host time is measured outside the chain, by ftcbench.

Design constraints, in order:

1. **Zero perturbation.**  The profiler never touches the simulation
   clock, an RNG stream, or any packet -- so a *profiled* run produces
   the same virtual-time results as an unprofiled one.
2. **One seam.**  A stage is counted where the data path emits its
   event (:data:`repro.telemetry.bundle.EVENTS` declares which
   events count under which stage); only ``engine/dispatch`` is
   counted by the engine itself.  Every site sits behind one
   ``telemetry.enabled`` test, so a disabled profiler is never called
   and fig5/fig13 stay byte-identical.
"""

from __future__ import annotations

from typing import Dict

#: The stage taxonomy (PROTOCOL.md §13.1), read from the routing table:
#: every instrumented segment of the per-packet pipeline counts under
#: exactly one of these names.
from ..telemetry.bundle import STAGES

__all__ = ["STAGES", "StageProfiler"]


class StageProfiler:
    """Per-stage call counters, fed by :meth:`Telemetry.emit` (and by
    the engine for ``engine/dispatch``)."""

    __slots__ = ("calls",)

    enabled = True

    def __init__(self):
        self.calls: Dict[str, int] = {}

    def count(self, stage: str, n: int = 1) -> None:
        """Attribute ``n`` calls to ``stage``."""
        self.calls[stage] = self.calls.get(stage, 0) + n

    def report(self, packets: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-stage ``{calls[, calls_per_packet]}``.

        Stages are reported in taxonomy order (unknown stages sorted at
        the end) so two same-seed reports are directly diffable.
        """
        known = [s for s in STAGES if s in self.calls]
        extra = sorted(set(self.calls) - set(STAGES))
        out: Dict[str, Dict[str, float]] = {}
        for stage in known + extra:
            entry: Dict[str, float] = {"calls": self.calls[stage]}
            if packets > 0:
                entry["calls_per_packet"] = round(
                    self.calls[stage] / packets, 4)
            out[stage] = entry
        return out

    def __repr__(self):
        return (f"<StageProfiler stages={len(self.calls)} "
                f"calls={sum(self.calls.values())}>")
