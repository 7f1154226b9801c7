"""Comparison systems: NF (no FT), FTMB [51], FTMB+Snapshot."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "ftmb": ("FTMBChain",),
    "nf": ("NFChain",),
})
