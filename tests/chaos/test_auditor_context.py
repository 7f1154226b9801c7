"""Structured context on invariant violations (satellite of §10).

A violation message must be self-describing: seed, schedule, virtual
time, and chain configuration ride along so a bare line in a CI log is
enough to reproduce the failing run -- and when a flight recorder is
on, the violation trips it and the auto-dump lands on disk.
"""

import json

from repro.chaos import InvariantAuditor, InvariantViolation
from repro.chaos.soak import SOAK_COSTS
from repro.core import FTCChain
from repro.flight import FlightRecorder
from repro.middlebox import ch_n
from repro.sim import Simulator
from repro.telemetry import Telemetry


def _chain(telemetry=None):
    sim = Simulator()
    chain = FTCChain(sim, ch_n(2, n_threads=2), f=1,
                     deliver=lambda packet: None, costs=SOAK_COSTS,
                     n_threads=2, seed=0, telemetry=telemetry)
    chain.start()
    return sim, chain


class TestViolationContext:
    def test_str_carries_structured_context(self):
        violation = InvariantViolation(
            invariant="release-safety", detail="2 duplicate releases",
            at_s=1.5e-3, context={"seed": 70001, "schedule": 3,
                                  "chain_length": 4, "f": 2})
        text = str(violation)
        assert "release-safety: 2 duplicate releases" in text
        assert "seed=70001" in text
        assert "schedule=3" in text
        assert "chain_length=4" in text
        assert "f=2" in text
        assert violation.context["seed"] == 70001

    def test_context_free_violation_renders_bare(self):
        violation = InvariantViolation(
            invariant="egress-loss", detail="released 9 != sent 10",
            at_s=2e-3)
        assert str(violation) == "[2.000ms] egress-loss: released 9 != sent 10"

    def test_flag_enriches_with_chain_config(self):
        sim, chain = _chain()
        auditor = InvariantAuditor(chain, context={"seed": 42})
        auditor._flag("log-propagation", "synthetic")
        (violation,) = auditor.violations
        assert violation.context["seed"] == 42
        assert violation.context["chain_length"] == 2
        assert violation.context["f"] == 1
        assert violation.at_s == sim.now

    def test_flag_trips_the_flight_recorder(self, tmp_path):
        path = tmp_path / "flight.json"
        flight = FlightRecorder(autodump_path=str(path))
        telemetry = Telemetry(flight=flight)
        sim, chain = _chain(telemetry=telemetry)
        auditor = InvariantAuditor(chain, context={"seed": 42})
        auditor._flag("release-safety", "synthetic")
        assert flight.trips == ["invariant:release-safety"]
        dump = json.loads(path.read_text())
        assert dump["reason"] == "invariant:release-safety"
        kinds = [(e["component"], e["kind"]) for e in dump["events"]]
        assert ("chaos", "violation") in kinds
        violation_event = next(e for e in dump["events"]
                               if e["kind"] == "violation")
        assert "seed=42" in violation_event["detail"]

    def test_flag_without_flight_stays_silent(self):
        sim, chain = _chain()
        auditor = InvariantAuditor(chain)
        auditor._flag("log-propagation", "synthetic")
        assert len(auditor.violations) == 1  # and no crash on NULL_FLIGHT
