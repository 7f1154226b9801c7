"""Randomized fault sampling (the chaos monkey).

A :class:`ChaosMonkey` is a simulation process that samples
:class:`~repro.chaos.plan.FaultSpec`\\ s -- exponentially-spaced
arrival times, weighted fault kinds, uniformly-chosen targets -- and
hands each to its :class:`~repro.chaos.plan.FaultInjector`, the only
code that applies a fault.  Every draw comes from the chain's
``chaos-monkey`` stream, in a fixed order per arrival (interval, then
kind, then target), so a schedule is a pure function of its seed --
any soak failure reproduces exactly from ``--seed``.

Crash victims are drawn only among positions
:meth:`FTCChain.safe_to_fail` allows, keeping every replication group
within its f-loss budget (the protocol's correctness envelope, §4).  A
``crash-during-recovery`` arrival arms one spec without a position:
the injector draws its victim, under the same rule and from the same
stream, when the next recovery reaches its fetching phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.chain import FTCChain
from ..orchestration.orchestrator import Orchestrator
from ..sim import CancelledError, Interrupt
from .plan import _SAMPLER_STREAM, FaultInjector, FaultPlan, FaultSpec

__all__ = ["ChaosMonkey", "DEFAULT_KIND_WEIGHTS"]

#: Relative odds of each fault kind per arrival.  ``impair-data`` and
#: the ``orch-*`` control-plane kinds are not in the default mix:
#: adding a kind would shift every draw and break seed-compatibility
#: with existing soak schedules -- opt in via ``kind_weights`` (the
#: impaired and control-plane soak modes do).
DEFAULT_KIND_WEIGHTS: Dict[str, float] = {
    "crash": 0.6,
    "crash-during-recovery": 0.2,
    "impair-control": 0.2,
}

#: The opt-in mix for control-plane soaks (PROTOCOL.md §9): chain
#: crashes keep recovery work in flight while ensemble members crash,
#: get partitioned off, and freeze past their leases.
CTRLPLANE_KIND_WEIGHTS: Dict[str, float] = {
    "crash": 0.4,
    "orch-crash": 0.25,
    "orch-partition": 0.2,
    "stale-leader-resume": 0.15,
}

#: kind -> the spec fields of a sampled fault, before its target.
_SAMPLED: Dict[str, dict] = {
    "crash": {},
    "crash-during-recovery": dict(phase="fetching"),
    "impair-control": dict(drop_rate=0.3, dup_rate=0.1, duration_s=5e-3),
    "impair-data": dict(drop_rate=0.05, dup_rate=0.02, reorder_rate=0.02,
                        corrupt_rate=0.01, duration_s=5e-3),
    "orch-crash": dict(restart_after_s=15e-3),
    "orch-partition": dict(duration_s=8e-3),
    "stale-leader-resume": dict(duration_s=12e-3),
    "flash-crowd": dict(duration_s=6e-3),
    "slow-middlebox": dict(duration_s=6e-3),
    "queue-pressure": dict(duration_s=6e-3),
}


class ChaosMonkey:
    """A process sampling random (but seed-reproducible) faults.

    ``ensemble`` is the target of the ``orch-*`` kinds (usually also
    passed as ``orchestrator`` -- it mirrors the facade).  A weighted
    kind the monkey cannot sample, or whose target it lacks, is a
    ``ValueError`` here rather than an arrival that injects nothing.
    """

    def __init__(self, chain: FTCChain, orchestrator: Orchestrator,
                 mean_interval_s: float = 10e-3,
                 kind_weights: Optional[Dict[str, float]] = None,
                 max_faults: Optional[int] = None,
                 start_after_s: float = 0.0,
                 ensemble=None):
        self.chain = chain
        self.orchestrator = orchestrator
        self.ensemble = ensemble
        self.mean_interval_s = mean_interval_s
        self.kind_weights = dict(kind_weights or DEFAULT_KIND_WEIGHTS)
        self.max_faults = max_faults
        self.start_after_s = start_after_s
        self.rng = chain.streams.stream(_SAMPLER_STREAM)
        self._injector = FaultInjector(chain, orchestrator, FaultPlan(),
                                       seed=chain.streams.seed,
                                       ensemble=ensemble)
        for kind in self.kind_weights:
            if kind not in _SAMPLED:
                raise ValueError(f"the chaos monkey cannot sample {kind!r} "
                                 f"faults (it samples {', '.join(_SAMPLED)})")
            self._injector._check(
                kind, armed=kind == "crash-during-recovery")
        self._process = None

    @property
    def injected(self) -> List[Tuple[float, str]]:
        """(fire time, description) per injected fault."""
        return self._injector.injected

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._process = self.chain.sim.process(self._loop(), name="chaos-monkey")

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("chaos stopped")
        self._process = None

    # -- sampling ----------------------------------------------------------------

    def _pick_kind(self) -> str:
        kinds = list(self.kind_weights)
        total = sum(self.kind_weights[k] for k in kinds)
        draw = self.rng.uniform(0.0, total)
        for kind in kinds:
            draw -= self.kind_weights[kind]
            if draw <= 0:
                return kind
        return kinds[-1]

    def _pick_member(self, require_quorum: bool = False):
        """A random non-crashed, non-paused ensemble member.

        ``require_quorum`` refuses picks that would leave fewer alive
        members than a majority -- a quorumless ensemble *correctly*
        freezes (no leader, no commands), which is the one outcome a
        soak cannot distinguish from a livelock, so the monkey keeps
        the ensemble electable by construction.
        """
        candidates = [m for m in self.ensemble.members
                      if not m.crashed and not m.paused]
        if not candidates:
            return None
        if require_quorum:
            majority = self.ensemble.members[0].majority
            if self.ensemble.alive_members - 1 < majority:
                return None
        return candidates[self.rng.randrange(len(candidates))]

    def _sample(self, kind: str) -> Optional[FaultSpec]:
        """This arrival's spec of ``kind``, or None when it has no target."""
        fields = dict(_SAMPLED[kind], kind=kind, at_s=self.chain.sim.now)
        if kind == "crash":
            fields["position"] = self._injector._victim(
                self.orchestrator.recovering_positions)
            if fields["position"] is None:
                return None  # every further crash would exceed some f
        elif kind == "crash-during-recovery":
            if self._injector._armed["recovery"]:
                return None  # one armed crash at a time
        elif kind in ("orch-crash", "orch-partition"):
            member = self._pick_member(require_quorum=kind == "orch-crash")
            if member is None:
                return None
            fields["member"] = member.index
        elif kind == "slow-middlebox":
            fields["position"] = self.rng.randrange(self.chain.n_mboxes)
        return FaultSpec(**fields)

    # -- the loop -----------------------------------------------------------------

    def _loop(self):
        sim = self.chain.sim
        try:
            if self.start_after_s > 0:
                yield sim.timeout(self.start_after_s)
            while self.max_faults is None or len(self.injected) < self.max_faults:
                yield sim.timeout(self.rng.expovariate(1.0 / self.mean_interval_s))
                spec = self._sample(self._pick_kind())
                if spec is not None:
                    self._injector._apply(spec)
        except (Interrupt, CancelledError):
            return
