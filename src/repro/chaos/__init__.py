"""Chaos fault injection + invariant auditing.

Three layers (see PROTOCOL.md, "Failure model & chaos testing"):

- **Injection**: scripted :class:`FaultPlan` schedules and the
  randomized :class:`ChaosMonkey`, both driving ``Server.fail()`` /
  ``Network.impair()`` through seeded RNG streams.
- **Hardened paths under test**: ``repro.net.retry`` and the
  re-entrant recovery in ``repro.orchestration`` (exercised, not
  defined, here).
- **Audit**: :class:`InvariantAuditor` checking the §4/§5 invariants
  against a :class:`ShadowOracle`; :class:`Scenario` + :func:`run`,
  the one audited run loop every soak, bench scenario and extension
  experiment goes through; and the soak harness behind
  ``python -m repro chaos``.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "auditor": ("InvariantAuditor", "InvariantViolation", "ShadowOracle"),
    "monkey": (
        "CTRLPLANE_KIND_WEIGHTS", "ChaosMonkey", "DEFAULT_KIND_WEIGHTS",
        "OVERLOAD_KIND_WEIGHTS",
    ),
    "plan": (
        "FAULT_KINDS", "FaultInjector", "FaultPlan", "FaultSpec",
        "IMPAIRED_DELIVERY", "ORCH_FAULT_KINDS", "OVERLOAD_FAULT_KINDS",
        "RECONFIG_FAULT_KINDS",
    ),
    "scenario": ("CHECKS", "Monkey", "Run", "Scenario", "Step", "run"),
    "soak": (
        "OverloadSpec", "ScheduleResult", "SoakConfig", "SoakResult",
        "chaos_scenario", "ctrlplane_scenario", "impaired_scenario",
        "overload_scenario", "reconfig_scenario", "run_schedule", "run_soak",
        "soak_scenario",
    ),
})
