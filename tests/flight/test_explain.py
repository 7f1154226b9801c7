"""Golden tests for the post-mortem explain engine (PROTOCOL.md §10).

One fixed-seed crash-during-recovery run under a replicated control
plane is the acceptance scenario: the flight dump must let
``explain --recovery`` reconstruct the full causal chain -- suspicion,
corroboration, the election that installed the leader, its journal
write-aheads, the state fetches, and the fenced re-steer -- and every
RecoveryTimeline event must be written to the ring exactly once.
"""

import itertools
import json

import pytest

from repro.chaos import FaultInjector, FaultSpec, ShadowOracle
from repro.chaos.soak import CTRLPLANE_ELECTION, SOAK_COSTS
from repro.core import FTCChain
from repro.flight import (
    FlightRecorder,
    explain_epoch,
    explain_packet,
    explain_recovery,
    load_dump,
    walk_back,
)
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import OrchestratorEnsemble
from repro.sim import Simulator
from repro.telemetry import TIMELINE_EVENT_KINDS, Telemetry


def _crash_during_recovery(seed=11, capacity=65536):
    """A fixed-seed run: p1 crashes, and while its recovery is in the
    fetching phase p3 crashes too (the §5.2 worst case).  Ch-5 with
    f=1 keeps the two failures in disjoint replication groups, so both
    recoveries must commit.  Returns the flight dump and the telemetry
    bundle, whose timeline the dump no longer carries."""
    # Packet ids come from a process-global counter; pin it so two
    # harness runs in one process produce byte-identical dumps (across
    # processes the seed alone suffices).
    from repro.net import packet as packet_module
    packet_module._packet_ids = itertools.count(1)
    sim = Simulator()
    oracle = ShadowOracle()
    flight = FlightRecorder(capacity=capacity)
    flight.set_context(seed=seed, chain_length=5, f=1)
    telemetry = Telemetry(flight=flight)
    chain = FTCChain(sim, ch_n(5, n_threads=2), f=1, deliver=oracle,
                     costs=SOAK_COSTS, n_threads=2, seed=seed,
                     telemetry=telemetry)
    chain.start()
    ensemble = OrchestratorEnsemble(sim, chain, n=3,
                                    election=CTRLPLANE_ELECTION,
                                    heartbeat_interval_s=1e-3,
                                    corroborate_suspects=True)
    ensemble.start()
    injector = FaultInjector(chain, ensemble, [
        FaultSpec(kind="crash", at_s=15e-3, position=1),
        FaultSpec(kind="crash-during-recovery", position=3,
                  phase="fetching")], ensemble=ensemble)
    injector.start()
    generator = TrafficGenerator(sim, chain.ingress, rate_pps=2e4,
                                 flows=balanced_flows(8, 2))
    sim.run(until=60e-3)
    generator.stop()
    sim.run(until=0.12)
    ensemble.stop()
    assert len(injector.injected) == 2, injector.injected
    assert any(event.recovered for event in ensemble.history)
    return flight.dump(reason="demand", telemetry=telemetry), telemetry


@pytest.fixture(scope="module")
def crash_run():
    return _crash_during_recovery()


@pytest.fixture(scope="module")
def dump(crash_run):
    return crash_run[0]


class TestExplainRecovery:
    def test_reconstructs_full_causal_chain(self, dump):
        text = explain_recovery(dump, 1)
        assert "recovery of p1: committed" in text
        # The §10 acceptance chain: suspect -> corroborate ->
        # elect/journal -> fetch -> re-steer -> committed, in order.
        order = ["orch/suspected", "orch/corroborated", "orch/confirmed",
                 "recovery/initializing", "journal/spawn",
                 "recovery/fetching", "recovery/fetched",
                 "recovery/rerouting", "journal/re-steer",
                 "fencing/applied", "recovery/committed"]
        positions = [text.index(marker) for marker in order]
        assert positions == sorted(positions), text
        # The chain is rooted in the leadership that ran it.
        assert "election/elected" in text or "journal/declare-failed" in text

    def test_every_timeline_event_is_written_once_to_the_ctrl_chain(
            self, crash_run):
        dump, telemetry = crash_run
        ctrl, truncated = walk_back(
            dump, telemetry.flight._cursors["ctrl"])
        assert truncated == -1
        twins = [e for e in ctrl
                 if (e["component"], e["kind"]) in TIMELINE_EVENT_KINDS]
        # No twin off the ctrl chain, and one per timeline event.
        assert len(twins) == sum(
            (e["component"], e["kind"]) in TIMELINE_EVENT_KINDS
            for e in dump["events"])
        events = telemetry.timeline.events
        assert len(twins) == len(events)
        for event, twin in zip(events, twins):
            assert (twin["component"], twin["kind"], twin["t"],
                    twin.get("epoch")) == (event.component, event.kind,
                                           event.t, event.epoch)
            assert twin.get("detail", "").startswith(event.detail)
        # Both recoveries, the second crash-during-recovery one too.
        assert "recovery of p3: committed" in explain_recovery(dump, 3)

    def test_unknown_position_reports_cleanly(self, dump):
        assert "no committed or abandoned recovery" in \
            explain_recovery(dump, 99)


class TestExplainPacketAndEpoch:
    def test_packet_journey_is_linear_and_complete(self, dump):
        pids = sorted({e["pid"] for e in dump["events"]
                       if e.get("pid") is not None
                       and e["component"] == "buffer"
                       and e["kind"] == "release"})
        assert pids, "no released packets in the dump"
        text = explain_packet(dump, pids[0])
        assert "stm/commit" in text
        assert "piggyback/append" in text
        assert "buffer/release" in text

    def test_epoch_story_names_its_election(self, dump):
        epochs = sorted({e["epoch"] for e in dump["events"]
                         if e.get("epoch") is not None})
        assert epochs
        text = explain_epoch(dump, epochs[0])
        assert "won at" in text
        assert "election/campaign" in text

    def test_unknown_epoch_reports_cleanly(self, dump):
        assert "no flight events" in explain_epoch(dump, 999)


class TestDumpProperties:
    def test_same_seed_dumps_are_byte_identical(self, dump):
        again, _ = _crash_during_recovery()
        assert json.dumps(dump, sort_keys=True) == \
            json.dumps(again, sort_keys=True)
        assert explain_recovery(dump, 1) == explain_recovery(again, 1)

    def test_truncated_ring_reports_shed_history(self):
        small, _ = _crash_during_recovery(capacity=64)
        assert small["dropped"] > 0
        text = explain_recovery(small, 1)
        # Either the full chain survived in the tail window or the walk
        # must say exactly where it was cut -- never silently shortened.
        assert ("causal chain truncated" in text
                or "no committed or abandoned recovery" in text
                or "recovery of p1: committed" in text)

    def test_walk_back_terminates_on_cycles(self, dump):
        refs = [e["ref"] for e in dump["events"]]
        chain, truncated = walk_back(dump, refs[-1])
        assert len(chain) <= len(refs)

    def test_load_dump_rejects_non_dumps(self, tmp_path):
        bogus = tmp_path / "not-a-dump.json"
        bogus.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a flight dump"):
            load_dump(str(bogus))
