"""Orchestration: SDN-controller-style monitoring, placement, recovery."""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "brownout": (
        "BROWNOUT_STEPS", "BrownoutController", "BrownoutTransition",
    ),
    "cloud": ("CloudNetwork", "SAVI_REGIONS", "savi_rtt_matrix"),
    "election": ("ElectionConfig", "ElectionMember"),
    "ensemble": ("EnsembleMember", "OrchestratorEnsemble"),
    "journal": ("CommandJournal", "JOURNAL_STEPS", "JournalEntry"),
    "orchestrator": ("FailureEvent", "Orchestrator"),
    "placement": ("place_chain", "validate_isolation"),
})
