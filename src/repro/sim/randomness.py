"""Deterministic random-number streams for simulations.

Every stochastic component draws from its own named stream derived
from a single experiment seed, so (a) runs are exactly reproducible
and (b) changing one component's draws does not perturb another's --
the standard variance-reduction discipline for simulation studies.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams"]


class RandomStreams:
    """A registry of independent, deterministically seeded RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on the named stream."""
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def gauss_clamped(self, name: str, mean: float, stdev: float,
                      minimum: float = 0.0) -> float:
        """Gaussian draw clamped below at ``minimum`` (for jittered costs)."""
        return max(minimum, self.stream(name).gauss(mean, stdev))
