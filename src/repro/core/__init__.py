"""FTC core: the paper's primary contribution.

Public surface: build an :class:`FTCChain` over a list of middleboxes,
feed it packets via ``chain.ingress``, and receive released packets in
your ``deliver`` callable once their state updates are replicated f+1
times.  Failure injection and recovery are exposed for orchestrators
(`repro.orchestration`) and tests.
"""

from .admission import (
    AdmissionControl,
    BackpressureBus,
    PressureSource,
    TokenBucket,
)
from .buffer import Buffer
from .chain import FTCChain
from .costs import CostModel, DEFAULT_COSTS
from .fencing import AppliedCommand, EpochGate, StaleConfigError, StaleEpochError
from .depvec import DependencyVector, ProtocolError, ReplicationState
from .forwarder import Forwarder
from .piggyback import CommitVector, PiggybackLog, PiggybackMessage, value_bytes
from .reconfig import (
    RECONFIG_KINDS,
    RECONFIG_PHASES,
    ChainConfig,
    ClassifierRule,
    ClassifierSet,
    ReconfigError,
    ReconfigOp,
    ReconfigReport,
    apply_reconfig,
)
from .recovery import (
    RECOVERY_PHASES,
    RecoveryError,
    RecoveryReport,
    UnrecoverableError,
    recover_positions,
)
from .replica import Replica
from .runtime import CycleCounters, MiddleboxRuntime

__all__ = [
    "AdmissionControl",
    "AppliedCommand",
    "BackpressureBus",
    "Buffer",
    "ChainConfig",
    "ClassifierRule",
    "ClassifierSet",
    "CommitVector",
    "CostModel",
    "CycleCounters",
    "DEFAULT_COSTS",
    "DependencyVector",
    "EpochGate",
    "FTCChain",
    "Forwarder",
    "MiddleboxRuntime",
    "PiggybackLog",
    "PiggybackMessage",
    "PressureSource",
    "ProtocolError",
    "RECONFIG_KINDS",
    "RECONFIG_PHASES",
    "RECOVERY_PHASES",
    "ReconfigError",
    "ReconfigOp",
    "ReconfigReport",
    "RecoveryError",
    "RecoveryReport",
    "Replica",
    "StaleConfigError",
    "StaleEpochError",
    "TokenBucket",
    "ReplicationState",
    "UnrecoverableError",
    "apply_reconfig",
    "recover_positions",
    "value_bytes",
]
