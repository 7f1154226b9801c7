"""Tests for recovery timeline stitching and attempt parsing."""

import pytest

from repro.flight import FlightRecorder
from repro.telemetry import (
    NULL_TELEMETRY,
    RecoveryTimeline,
    Telemetry,
    validate_chrome_trace,
)


def _record_attempt(timeline, t0=0.0, positions=(1,)):
    timeline.record("recovery", "initializing", positions, t=t0)
    timeline.record("recovery", "spawned", positions, t=t0 + 1e-3)
    timeline.record("recovery", "fetching", positions, t=t0 + 1e-3)
    timeline.record("recovery", "fetched", positions, t=t0 + 3e-3)
    timeline.record("recovery", "rerouting", positions, t=t0 + 3e-3)
    timeline.record("recovery", "committed", positions, t=t0 + 3.5e-3)


class TestRecording:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RecoveryTimeline().record("recovery", "exploded", t=0.0)

    def test_event_str(self):
        timeline = RecoveryTimeline()
        timeline.record("chaos", "fault-injected", [2], detail="crash", t=1e-3)
        text = str(timeline.events[0])
        assert "chaos/fault-injected" in text and "crash" in text


class TestAttemptParsing:
    def test_phase_durations(self):
        timeline = RecoveryTimeline()
        timeline.record("chaos", "fault-injected", [1], t=-1e-3)
        timeline.record("orch", "suspected", [1], t=-0.5e-3)
        timeline.record("orch", "confirmed", [1], t=-0.1e-3)
        _record_attempt(timeline)
        (attempt,) = timeline.committed_attempts()
        assert attempt.positions == (1,)
        assert attempt.phases["initialization"] == pytest.approx(1e-3)
        assert attempt.phases["state_recovery"] == pytest.approx(2e-3)
        assert attempt.phases["rerouting"] == pytest.approx(0.5e-3)
        assert attempt.total_s == pytest.approx(3.5e-3)

    def test_aborted_attempt_not_committed(self):
        timeline = RecoveryTimeline()
        timeline.record("recovery", "initializing", [0], t=0.0)
        timeline.record("recovery", "spawned", [0], t=1e-3)
        timeline.record("recovery", "abandoned", [0], detail="gave up", t=2e-3)
        attempts = timeline.attempts()
        assert len(attempts) == 1
        assert not attempts[0].committed
        assert timeline.committed_attempts() == []

    def test_reconfig_commit_is_not_a_recovery_attempt(self):
        timeline = RecoveryTimeline()
        timeline.record("reconfig", "preparing", [1], t=0.0)
        timeline.record("reconfig", "committed", [1], t=1e-3)
        assert timeline.attempts() == []

    def test_multiple_attempts(self):
        timeline = RecoveryTimeline()
        _record_attempt(timeline, t0=0.0, positions=(0,))
        _record_attempt(timeline, t0=0.01, positions=(2,))
        attempts = timeline.committed_attempts()
        assert [a.positions for a in attempts] == [(0,), (2,)]


class TestEmit:
    def test_one_emit_feeds_timeline_and_flight_ring(self):
        telemetry = Telemetry(flight=FlightRecorder())
        delays = telemetry.registry.histogram("orch/detection_delay_s")
        telemetry.emit("orch", "confirmed", [1, 2], t=2e-3, epoch=3,
                       value=1e-3, detail="detection delay 1.000ms")
        assert delays.count == 1
        telemetry.emit("election", "elected", t=3e-3, epoch=4, member=0,
                       detail="m0")
        (confirmed, elected) = telemetry.timeline.events
        assert (confirmed.component, confirmed.kind, confirmed.positions,
                confirmed.epoch) == ("orch", "confirmed", (1, 2), 3)
        first, second = telemetry.flight.events
        assert first.detail == "detection delay 1.000ms positions=[1, 2]"
        assert (first.t, first.epoch) == (2e-3, 3)
        assert second.detail == "m0" and second.parent_ref == first.ref

    def test_unknown_event_rejected_before_any_write(self):
        telemetry = Telemetry(flight=FlightRecorder())
        with pytest.raises(ValueError):
            telemetry.emit("orch", "elected", t=0.0)
        assert len(telemetry.flight) == 0

    def test_null_emit_records_nothing(self):
        assert NULL_TELEMETRY.emit("orch", "confirmed", [1], t=1.0) is None
        assert not hasattr(NULL_TELEMETRY.timeline, "__dict__")


class TestExport:
    def test_chrome_events_valid(self):
        timeline = RecoveryTimeline()
        _record_attempt(timeline)
        trace = {"traceEvents": timeline.chrome_events()}
        assert validate_chrome_trace(trace) == []
        assert {e["tid"] for e in trace["traceEvents"]} == {9998}
        assert trace["traceEvents"][0]["name"] == "recovery/initializing"

    def test_render(self):
        timeline = RecoveryTimeline()
        _record_attempt(timeline)
        text = timeline.render()
        assert "recovery timeline" in text
        assert "committed" in text
        assert "total=3.500ms" in text

    def test_null_timeline(self):
        null_timeline = NULL_TELEMETRY.timeline
        assert null_timeline is NULL_TELEMETRY
        assert not null_timeline.enabled
