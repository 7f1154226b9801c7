"""FlightRecorder properties: bounded ring, drop-oldest, determinism.

The recorder is the one observability surface allowed on hot paths, so
its contract is pinned by property tests: the ring never exceeds its
capacity, overflow sheds strictly the *oldest* events (refs stay
monotonic and the retained window is always a suffix), recording is a
pure function of the call sequence (same calls -> byte-identical
dumps), and the NULL singleton never observes anything.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.flight import DUMP_VERSION, FlightRecorder
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.bundle import EVENTS

NULL_FLIGHT = NULL_TELEMETRY.flight

#: Every component an event may come from, in first-row order.
COMPONENTS = tuple(dict.fromkeys(component for component, _ in EVENTS))

# A random but replayable call sequence: (component idx, kind, pid-ish).
_calls = st.lists(
    st.tuples(st.integers(0, len(COMPONENTS) - 1),
              st.sampled_from(["a", "b", "c"]),
              st.integers(0, 5)),
    max_size=200)


def _replay(recorder, calls):
    for i, (component, kind, pid) in enumerate(calls):
        recorder.record(COMPONENTS[component], kind, t=i * 1e-6,
                        pid=pid, chain=f"pid:{pid}")


class TestRingBounds:
    @settings(max_examples=50)
    @given(calls=_calls, capacity=st.integers(1, 32))
    def test_ring_never_exceeds_capacity(self, calls, capacity):
        recorder = FlightRecorder(capacity=capacity)
        _replay(recorder, calls)
        assert len(recorder) <= capacity
        assert len(recorder) == min(len(calls), capacity)
        assert recorder.dropped == max(0, len(calls) - capacity)

    @settings(max_examples=50)
    @given(calls=_calls, capacity=st.integers(1, 32))
    def test_overflow_drops_oldest_first(self, calls, capacity):
        recorder = FlightRecorder(capacity=capacity)
        _replay(recorder, calls)
        refs = [event.ref for event in recorder.events]
        # Refs are assigned 0..n-1 in call order; a drop-oldest ring
        # must retain exactly the trailing window, in order.
        assert refs == list(range(max(0, len(calls) - capacity), len(calls)))

    def test_capacity_must_be_positive(self):
        try:
            FlightRecorder(capacity=0)
        except ValueError:
            pass
        else:
            raise AssertionError("capacity=0 accepted")


class TestDeterminism:
    @settings(max_examples=30)
    @given(calls=_calls)
    def test_same_calls_same_dump(self, calls):
        first = FlightRecorder(capacity=16)
        second = FlightRecorder(capacity=16)
        _replay(first, calls)
        _replay(second, calls)
        assert json.dumps(first.dump()) == json.dumps(second.dump())

    def test_chain_cursor_links_consecutive_events(self):
        recorder = FlightRecorder()
        a = recorder.record("orch", "suspected", t=0.0, chain="ctrl")
        b = recorder.record("recovery", "initializing", t=1e-3, chain="ctrl")
        lone = recorder.record("stm", "commit", t=1e-3, pid=7, chain="pid:7")
        c = recorder.record("recovery", "committed", t=2e-3, chain="ctrl")
        events = {event.ref: event for event in recorder.events}
        assert events[a].parent_ref is None
        assert events[b].parent_ref == a
        assert events[lone].parent_ref is None
        assert events[c].parent_ref == b

    def test_explicit_parent_beats_chain_cursor(self):
        recorder = FlightRecorder()
        a = recorder.record("orch", "suspected", t=0.0, chain="ctrl")
        recorder.record("election", "elected", t=1e-3, chain="ctrl")
        c = recorder.record("recovery", "initializing", t=2e-3,
                            chain="ctrl", parent=a)
        # The chain cursor still advanced to c.
        d = recorder.record("recovery", "committed", t=3e-3, chain="ctrl")
        events = {event.ref: event for event in recorder.events}
        assert events[c].parent_ref == a
        assert events[d].parent_ref == c


class TestTripAndDump:
    def test_trip_autodumps_once(self, tmp_path):
        path = tmp_path / "flight.json"
        recorder = FlightRecorder(autodump_path=str(path))
        recorder.set_context(seed=3)
        recorder.record("orch", "suspected", t=1e-3, chain="ctrl")
        assert recorder.trip("invariant:release-safety", t=1e-3) == str(path)
        first = path.read_text()
        recorder.record("orch", "confirmed", t=2e-3, chain="ctrl")
        # Later trips must not clobber the first (most contextual) dump.
        assert recorder.trip("invariant:release-safety", t=2e-3) is None
        assert path.read_text() == first
        dump = json.loads(first)
        assert dump["version"] == DUMP_VERSION
        assert dump["reason"] == "invariant:release-safety"
        assert dump["context"] == {"seed": 3}
        assert [e["kind"] for e in dump["events"]] == ["suspected", "trip"]

    def test_dump_omits_none_fields(self):
        recorder = FlightRecorder()
        recorder.record("stm", "commit", t=0.0, pid=1,
                        depvec={3: 4}, chain="pid:1")
        (event,) = recorder.as_dicts()
        assert event["depvec"] == {"3": 4}
        assert "epoch" not in event and "parent_ref" not in event


class TestNullRecorder:
    def test_null_is_inert(self):
        assert not NULL_FLIGHT.enabled
        assert NULL_FLIGHT.trip("anything") is None
        assert NULL_FLIGHT.trips == ()

    def test_null_refuses_to_dump_files(self):
        # A run dumps only an enabled recorder; the null one has no dump.
        assert not hasattr(NULL_FLIGHT, "dump_json")
        assert not hasattr(NULL_FLIGHT, "dump")
