"""Discrete-event simulation substrate (virtual time, processes, resources)."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "engine": (
        "AllOf", "AnyOf", "Event", "Interrupt", "PRIORITY_NORMAL",
        "PRIORITY_URGENT", "Process", "SimulationError", "Simulator", "Timeout",
    ),
    "randomness": ("RandomStreams",),
    "resources": ("CancelledError", "RateLimiter", "Store"),
})
