"""Chaos fault injection + invariant auditing.

Three layers (see PROTOCOL.md, "Failure model & chaos testing"):

- **Injection**: one vocabulary of :class:`FaultSpec` kinds, whose
  registry names each kind's handler, text and target rule.
  :class:`FaultInjector` applies every fault -- scripted ones and those
  the randomized :class:`ChaosMonkey` samples on a seeded stream.
- **Hardened paths under test**: ``repro.net.retry`` and the
  re-entrant recovery in ``repro.orchestration`` (exercised, not
  defined, here).
- **Audit**: :class:`InvariantAuditor` checking the §4/§5 invariants
  against a :class:`ShadowOracle`; :class:`Scenario` + :func:`run`,
  the one audited run loop every soak, bench scenario and extension
  experiment goes through; and :func:`run_soak`, which runs a list of
  scenarios -- the soak ``python -m repro chaos`` builds from its flags.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "auditor": ("InvariantAuditor", "InvariantViolation", "ShadowOracle"),
    "monkey": (
        "CTRLPLANE_KIND_WEIGHTS", "ChaosMonkey", "DEFAULT_KIND_WEIGHTS",
    ),
    "plan": (
        "FAULT_KINDS", "FaultInjector", "FaultPlan", "FaultSpec",
        "IMPAIRED_DELIVERY", "ORCH_FAULT_KINDS", "OVERLOAD_FAULT_KINDS",
        "RECONFIG_FAULT_KINDS",
    ),
    "scenario": ("CHECKS", "Monkey", "Run", "Scenario", "Step", "run"),
    "soak": (
        "OverloadSpec", "SoakResult", "chaos_scenario", "ctrlplane_scenario",
        "impaired_scenario", "overload_scenario", "reconfig_scenario",
        "run_soak",
    ),
})
