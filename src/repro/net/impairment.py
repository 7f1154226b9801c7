"""Data-plane adversity: per-link drop/dup/reorder/corrupt impairment.

PR 1 gave the *control* plane a chaos knob (:class:`ControlImpairment`
applied inside :meth:`Network.control_call`); this module is the data
plane's counterpart.  A :class:`DataImpairment` installed through
:meth:`Network.impair_data` makes every chain link misbehave the way a
congested or flaky wire does:

- **drop**: the packet silently disappears;
- **dup**: the packet is delivered twice (switch retransmit storms,
  LAG rebalance);
- **reorder**: one copy is held back a little, so later packets on the
  FIFO link overtake it;
- **corrupt**: the payload is damaged in flight -- modelled as a
  :class:`Corrupted` wrapper the receiver discards on its FCS check
  (delivering garbage upward would be a different failure model).

All draws come from one dedicated seeded stream, so an impaired run is
a pure function of ``(seed, spec)`` and any red soak schedule replays
bit-for-bit.  Surviving loss/reorder end-to-end is the job of
``repro.net.channel`` (per-hop sequencing + retransmission) and the
FTC layers above it (PROTOCOL.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DataImpairment", "Corrupted", "DEFAULT_REORDER_DELAY_S"]

#: Extra hold-back applied to a reordered copy: a couple of hop delays,
#: enough for 1-2 later packets to overtake on a busy link.
DEFAULT_REORDER_DELAY_S = 25e-6

_RATE_FIELDS = ("drop_rate", "dup_rate", "reorder_rate", "corrupt_rate")

#: ``parse`` spelling of each rate field (the CLI's drop=P,dup=P,... keys).
_SPEC_KEYS = {"drop": "drop_rate", "dup": "dup_rate",
              "reorder": "reorder_rate", "corrupt": "corrupt_rate"}


@dataclass(frozen=True)
class DataImpairment:
    """Seeded chaos applied to packets on data-plane links.

    Mirrors :class:`repro.net.topology.ControlImpairment`: rates are
    independent per-packet probabilities, ``expires_at`` bounds the
    window so the chaos monkey can install transient storms.
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: How long a reordered copy is held back before delivery.
    reorder_delay_s: float = DEFAULT_REORDER_DELAY_S
    expires_at: Optional[float] = None

    def __post_init__(self):
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value!r}")
        if self.reorder_delay_s < 0:
            raise ValueError("reorder_delay_s must be non-negative")

    def active(self, now: float) -> bool:
        return self.expires_at is None or now < self.expires_at

    @classmethod
    def parse(cls, text: str, **kwargs) -> "DataImpairment":
        """Parse the CLI spec ``drop=P,dup=P,reorder=P,corrupt=P``.

        Keys are optional and may appear in any order; unknown keys and
        rates outside [0, 1] raise :class:`ValueError` with a message
        fit for direct display.
        """
        rates = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            key = key.strip()
            if key not in _SPEC_KEYS:
                raise ValueError(
                    f"unknown impairment key {key!r} "
                    f"(expected {'/'.join(_SPEC_KEYS)})")
            if not sep:
                raise ValueError(f"impairment key {key!r} needs =RATE")
            try:
                rate = float(value)
            except ValueError:
                raise ValueError(
                    f"impairment rate for {key!r} must be a number, "
                    f"got {value.strip()!r}") from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"impairment rate for {key!r} must be in [0, 1], "
                    f"got {rate!r}")
            rates[_SPEC_KEYS[key]] = rate
        if not rates:
            raise ValueError(
                "empty impairment spec (expected drop=P,dup=P,reorder=P,"
                "corrupt=P)")
        return cls(**rates, **kwargs)

    def describe(self) -> str:
        parts = [f"{key}={getattr(self, field):g}"
                 for key, field in _SPEC_KEYS.items()
                 if getattr(self, field) > 0.0]
        return "drop=0" if not parts else " ".join(parts)


class Corrupted:
    """A packet damaged in flight.

    The link delivers this wrapper instead of mutating the packet
    (mutation would also damage the sender's retained copy and any
    duplicate in flight).  Receivers treat it exactly like modern NICs
    treat an FCS failure: count it and drop it -- the reliability layer
    then recovers it like a loss.
    """

    __slots__ = ("inner",)

    #: Marker receivers check (cheaper than isinstance on the hot path).
    corrupted_wire = True

    def __init__(self, inner):
        self.inner = inner

    @property
    def wire_size(self) -> int:
        return self.inner.wire_size

    def __repr__(self):
        return f"<Corrupted {self.inner!r}>"
