"""FTC core: the paper's primary contribution.

Public surface: build an :class:`FTCChain` over a list of middleboxes,
feed it packets via ``chain.ingress``, and receive released packets in
your ``deliver`` callable once their state updates are replicated f+1
times.  Failure injection and recovery are exposed for orchestrators
(`repro.orchestration`) and tests.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "admission": (
        "AdmissionControl", "BackpressureBus", "PressureSource", "TokenBucket",
    ),
    "buffer": ("Buffer",),
    "chain": ("FTCChain",),
    "costs": ("CostModel", "DEFAULT_COSTS"),
    "fencing": (
        "AppliedCommand", "EpochGate", "StaleConfigError", "StaleEpochError",
    ),
    "depvec": ("DependencyVector", "ProtocolError", "ReplicationState"),
    "forwarder": ("Forwarder",),
    "piggyback": (
        "CommitVector", "PiggybackLog", "PiggybackMessage", "value_bytes",
    ),
    "reconfig": (
        "ClassifierRule", "ClassifierSet", "RECONFIG_KINDS", "RECONFIG_PHASES",
        "ReconfigError", "ReconfigOp", "ReconfigReport", "apply_reconfig",
    ),
    "recovery": (
        "RECOVERY_PHASES", "RecoveryError", "RecoveryReport",
        "UnrecoverableError", "recover_positions",
    ),
    "replica": ("Replica",),
    "runtime": ("CycleCounters", "MiddleboxRuntime"),
})
