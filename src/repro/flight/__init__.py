"""Always-on black box: causal flight recorder, explain engine, SLOs.

PR 5's observability subsystem (PROTOCOL.md §10):

* :mod:`repro.flight.recorder` -- the bounded deterministic ring of
  structured causal events, no-op when disabled;
* :mod:`repro.flight.explain` -- post-mortem reconstruction of causal
  chains from a dump (``repro explain``);
* :mod:`repro.flight.slo` -- windowed service-level objectives
  evaluated during runs, breaches recorded as flight events;
* :mod:`repro.flight.report` -- the ``repro report`` markdown run
  report aggregating metrics + breaches + timelines.
"""

from .._lazy import surface

__getattr__, __dir__, __all__ = surface(__name__, {
    "recorder": ("DUMP_VERSION", "FlightEvent", "FlightRecorder"),
    "explain": (
        "explain_epoch", "explain_packet", "explain_recovery", "load_dump",
        "walk_back",
    ),
    "slo": (
        "SLOBreach", "SLOObjective", "SLOWatchdog", "parse_slo_spec",
        "run_probes",
    ),
    "report": ("render_report",),
})
