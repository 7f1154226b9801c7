"""Per-stage cost attribution for the hot path (PROTOCOL.md §13).

The data plane is a Python object dance: every simulated packet pays
for engine event dispatch, an STM commit, dependency-vector merges,
piggyback append/trim, channel framing, buffer hold/release, and an
admission check.  Before any of that can be vectorized (ROADMAP item
1), the cost has to be *attributed*: this module provides the
:class:`StageProfiler` that the hot-path components report into, and
the exporters that turn its aggregates into a flame graph.

Design constraints, in order:

1. **Zero perturbation.**  The profiler reads only the wall clock
   (``time.perf_counter``); it never touches the simulation clock, an
   RNG stream, or any packet -- so a *profiled* run produces the same
   virtual-time results as an unprofiled one, and per-stage *call
   counts* are seed-deterministic even though wall seconds are not.
2. **One branch when off.**  Every hook site holds
   :data:`NULL_PROFILER` (or ``None`` in the engine) by default and
   tests its ``enabled`` class attribute before touching it: a
   disabled profiler is never called, and fig5/fig13 stay
   byte-identical.
3. **Flat recording, hierarchical reporting.**  Hooks record into flat
   per-stage accumulators (two clock reads per instrumented segment);
   the known nesting of stages (everything runs inside an engine
   dispatch; the buffer's release scan runs inside its hold handling)
   is encoded once in :data:`STAGE_TREE` and applied at export time,
   so collapsed-stack / speedscope output shows exclusive self-time
   without any per-call stack bookkeeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

# Re-exported from the leaf: the same objects, never redefined here.
from ..telemetry.null import NULL_PROFILER, NullProfiler

__all__ = [
    "STAGES",
    "STAGE_TREE",
    "StageProfiler",
    "NULL_PROFILER",
    "NullProfiler",
    "collapsed_lines",
    "speedscope_doc",
    "exclusive_seconds",
]

#: The stage taxonomy (PROTOCOL.md §13.1).  Every instrumented segment
#: of the per-packet pipeline reports under exactly one of these names.
STAGES = (
    "engine/dispatch",    # Simulator.step callback execution (the root)
    "admission/check",    # AdmissionControl.offer: bus level + token take
    "piggyback/append",   # Forwarder.attach: fed-back logs onto packets
    "depvec/merge",       # ReplicationState.offer walk at each replica
    "piggyback/trim",     # commit-vector absorb + retained-log pruning
    "stm/commit",         # transaction commit: apply writes + unlock
    "channel/frame",      # ReliableChannel send/receive framing
    "channel/ack",        # cumulative-ACK processing + window refill
    "buffer/hold",        # Buffer.handle: dedup, commits, release gating
    "buffer/release",     # the FIFO held-prefix scan + delivery
)

#: stage -> parent stage.  Measured intervals of a child are contained
#: in the parent's measured intervals; exports subtract children to get
#: self-time.  Stages absent here are children of the synthetic root.
STAGE_TREE: Dict[str, Optional[str]] = {
    "engine/dispatch": None,
    "admission/check": "engine/dispatch",
    "piggyback/append": "engine/dispatch",
    "depvec/merge": "engine/dispatch",
    "piggyback/trim": "engine/dispatch",
    "stm/commit": "engine/dispatch",
    "channel/frame": "engine/dispatch",
    "channel/ack": "engine/dispatch",
    "buffer/hold": "engine/dispatch",
    "buffer/release": "buffer/hold",
}


class StageProfiler:
    """Flat per-stage wall-time + call-count accumulators.

    The two-call protocol, each half behind the ``enabled`` test (a
    data-path hook never calls a disabled profiler)::

        profiled = profiler.enabled
        if profiled:
            t0 = profiler.t0()
        ...  # the instrumented segment
        if profiled:
            profiler.add("stm/commit", t0)

    ``clock`` is injectable for tests (a fake monotonic counter makes
    the seconds deterministic too).
    """

    __slots__ = ("_clock", "calls", "seconds")

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else time.perf_counter
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    # -- recording (the hot-path API) ----------------------------------------

    def t0(self) -> float:
        return self._clock()

    def add(self, stage: str, t0: float, n: int = 1) -> None:
        """Close a segment opened at ``t0`` and attribute it to ``stage``."""
        dt = self._clock() - t0
        self.seconds[stage] = self.seconds.get(stage, 0.0) + dt
        self.calls[stage] = self.calls.get(stage, 0) + n

    def count(self, stage: str, n: int = 1) -> None:
        """Attribute ``n`` calls with no wall time (pure event counts)."""
        self.calls[stage] = self.calls.get(stage, 0) + n

    # -- reporting ------------------------------------------------------------

    def wall_s(self, stage: str) -> float:
        return self.seconds.get(stage, 0.0)

    def report(self, packets: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-stage {calls, wall_s[, us_per_packet, calls_per_packet]}.

        Stages are reported in taxonomy order (unknown stages sorted at
        the end) so two same-seed reports are directly diffable.
        """
        known = [s for s in STAGES if s in self.calls or s in self.seconds]
        extra = sorted((set(self.calls) | set(self.seconds)) - set(STAGES))
        out: Dict[str, Dict[str, float]] = {}
        for stage in known + extra:
            entry: Dict[str, float] = {
                "calls": self.calls.get(stage, 0),
                "wall_s": round(self.seconds.get(stage, 0.0), 6),
            }
            if packets > 0:
                entry["us_per_packet"] = round(
                    self.seconds.get(stage, 0.0) * 1e6 / packets, 4)
                entry["calls_per_packet"] = round(
                    self.calls.get(stage, 0) / packets, 4)
            out[stage] = entry
        return out

    def publish(self, registry, packets: int = 0) -> None:
        """Mirror the aggregates into a :class:`MetricRegistry`.

        Counters carry call counts; gauges carry wall microseconds and
        (when ``packets`` is known) the per-packet amortized cost.
        """
        for stage, entry in self.report(packets=packets).items():
            registry.counter(f"perf/{stage}/calls").inc(int(entry["calls"]))
            registry.gauge(f"perf/{stage}/wall_us").set(
                entry["wall_s"] * 1e6)
            if packets > 0:
                registry.gauge(f"perf/{stage}/us_per_packet").set(
                    entry["us_per_packet"])

    def merge(self, other: "StageProfiler") -> None:
        """Fold another profiler's aggregates into this one."""
        for stage, n in other.calls.items():
            self.calls[stage] = self.calls.get(stage, 0) + n
        for stage, s in other.seconds.items():
            self.seconds[stage] = self.seconds.get(stage, 0.0) + s

    def __repr__(self):
        total = sum(self.seconds.values())
        return (f"<StageProfiler stages={len(self.calls)} "
                f"wall={total * 1e3:.1f}ms>")


# -- flame exports ------------------------------------------------------------

def _seconds_of(stages: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {name: float(entry.get("wall_s", 0.0))
            for name, entry in stages.items()}


def exclusive_seconds(stages: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self-time per stage: measured time minus instrumented children.

    Input is a :meth:`StageProfiler.report`-shaped mapping.  Clock
    noise can make a parent's measured total marginally smaller than
    the sum of its children; self-time is clamped at zero.
    """
    inclusive = _seconds_of(stages)
    child_sum: Dict[str, float] = {}
    for stage, seconds in inclusive.items():
        parent = STAGE_TREE.get(stage, "engine/dispatch")
        if parent is not None and parent in inclusive:
            child_sum[parent] = child_sum.get(parent, 0.0) + seconds
    return {stage: max(0.0, seconds - child_sum.get(stage, 0.0))
            for stage, seconds in inclusive.items()}


def _stack_of(stage: str, stages: Dict[str, Dict[str, float]]) -> List[str]:
    """Root-first ancestor chain of a stage within the report."""
    stack = [stage]
    seen = {stage}
    parent = STAGE_TREE.get(stage, "engine/dispatch")
    while parent is not None and parent in stages and parent not in seen:
        stack.append(parent)
        seen.add(parent)
        parent = STAGE_TREE.get(parent, "engine/dispatch")
    return list(reversed(stack))


def collapsed_lines(stages: Dict[str, Dict[str, float]]) -> List[str]:
    """Brendan-Gregg collapsed-stack lines (value = self-µs, integer).

    Feed to any ``flamegraph.pl``-compatible renderer.  Zero-valued
    frames are kept when they have calls, so a stage that executed but
    measured below clock resolution still appears.
    """
    self_time = exclusive_seconds(stages)
    lines = []
    for stage in stages:
        micros = int(round(self_time.get(stage, 0.0) * 1e6))
        stack = ";".join(_stack_of(stage, stages))
        lines.append(f"{stack} {micros}")
    return lines


def speedscope_doc(stages: Dict[str, Dict[str, float]],
                   name: str = "repro.perf") -> Dict:
    """A speedscope (https://speedscope.app) sampled-profile document.

    Each stage contributes one weighted sample whose stack is its
    ancestor chain; weights are self-time in microseconds.
    """
    frames = [{"name": stage} for stage in stages]
    index = {stage: i for i, stage in enumerate(stages)}
    self_time = exclusive_seconds(stages)
    samples: List[List[int]] = []
    weights: List[float] = []
    for stage in stages:
        weight = self_time.get(stage, 0.0) * 1e6
        samples.append([index[s] for s in _stack_of(stage, stages)])
        weights.append(round(weight, 3))
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro.perf",
        "name": name,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "microseconds",
            "startValue": 0,
            "endValue": round(sum(weights), 3),
            "samples": samples,
            "weights": weights,
        }],
    }
