"""Tests for the packet tracer and Chrome trace_event schema."""

import json

import pytest

from repro.telemetry import NULL_TELEMETRY, PacketTracer, validate_chrome_trace

NULL_TRACER = NULL_TELEMETRY.tracer


class TestSampling:
    def test_every_packet_by_default(self):
        tracer = PacketTracer()
        assert all(tracer.wants(pid) for pid in range(10))

    def test_deterministic_modulo(self):
        tracer = PacketTracer(sample_every=10)
        wanted = [pid for pid in range(50) if tracer.wants(pid)]
        assert wanted == [0, 10, 20, 30, 40]

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            PacketTracer(sample_every=0)

    def test_max_events_zero_disables_sampling(self):
        tracer = PacketTracer(max_events=0)
        assert not tracer.wants(0)
        assert tracer.dropped == 0


class TestRecording:
    def test_event_cap(self):
        tracer = PacketTracer(max_events=2)
        for pid in range(5):
            tracer.instant(pid, "x", "test", t_s=0.0)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_complete_clamps_negative_duration(self):
        tracer = PacketTracer()
        tracer.complete(1, "span", "test", start_s=2.0, end_s=1.0)
        assert tracer.events[0]["dur"] == 0.0

    def test_timestamps_in_microseconds(self):
        tracer = PacketTracer()
        tracer.complete(1, "span", "test", start_s=1e-3, end_s=2e-3)
        event = tracer.events[0]
        assert event["ts"] == pytest.approx(1000.0)
        assert event["dur"] == pytest.approx(1000.0)

    def test_thread_name_metadata(self):
        tracer = PacketTracer()
        tracer.set_thread_name(0, "p0:firewall")
        events = tracer.chrome_events()
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "p0:firewall"


class TestExport:
    def test_export_roundtrip(self, tmp_path):
        tracer = PacketTracer(sample_every=2)
        tracer.complete(0, "span", "test", start_s=0.0, end_s=1e-6, tid=1)
        tracer.begin_async(0, "hold", "test", t_s=0.0)
        tracer.end_async(0, "hold", "test", t_s=2e-6)
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["sample_every"] == 2

    def test_validator_rejects_bad_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "no"}) != []
        bad_phase = {"traceEvents": [
            {"name": "n", "cat": "c", "ph": "Q", "ts": 0, "pid": 0, "tid": 0}]}
        assert any("phase" in p for p in validate_chrome_trace(bad_phase))
        missing_dur = {"traceEvents": [
            {"name": "n", "cat": "c", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]}
        assert any("dur" in p for p in validate_chrome_trace(missing_dur))
        missing_id = {"traceEvents": [
            {"name": "n", "cat": "c", "ph": "b", "ts": 0, "pid": 0, "tid": 0}]}
        assert any("id" in p for p in validate_chrome_trace(missing_id))

    def test_null_tracer_exports_empty(self):
        # Nothing is traced with telemetry off: a run exports only an
        # enabled bundle's tracer, so the null one has nothing to export.
        assert not NULL_TRACER.enabled
        assert not hasattr(NULL_TRACER, "export")
        assert not hasattr(NULL_TRACER, "events")

