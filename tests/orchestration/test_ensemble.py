"""Replicated control plane: ensemble failover, journal, fencing."""

import pytest

from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.orchestration import (
    CloudNetwork,
    CommandJournal,
    ElectionConfig,
    JournalEntry,
    OrchestratorEnsemble,
    place_chain,
)
from repro.sim import Simulator
from repro.telemetry import Telemetry

COSTS = CostModel(cycle_jitter_frac=0.0)
CFG = ElectionConfig(lease_s=6e-3, renew_every_s=2e-3, candidacy_base_s=2e-3)


def _setup(seed=1, n=3):
    sim = Simulator()
    net = CloudNetwork(sim, hop_delay_s=COSTS.hop_delay_s,
                       bandwidth_bps=COSTS.bandwidth_bps, rtt_jitter_frac=0.0)
    egress = EgressRecorder(sim)
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=egress,
                     costs=COSTS, net=net, n_threads=2, seed=seed,
                     telemetry=Telemetry())
    place_chain(chain, ["core", "core", "core"])
    chain.start()
    ensemble = OrchestratorEnsemble(sim, chain, n=n, election=CFG,
                                    region="core")
    ensemble.start()
    return sim, chain, ensemble


class TestCommandJournal:
    def test_append_is_idempotent_by_key(self):
        journal = CommandJournal()
        entry = JournalEntry(epoch=1, seq=1, step="declare-failed",
                             positions=(1,), t=0.0)
        journal.append(entry)
        journal.append(entry)
        assert len(journal) == 1

    def test_open_positions_tracks_lifecycle(self):
        journal = CommandJournal()
        journal.append(JournalEntry(1, 1, "declare-failed", (1, 2), 0.0))
        journal.append(JournalEntry(1, 2, "re-steer", (1,), 1e-3))
        assert journal.open_commands() == ({1, 2}, {})
        journal.append(JournalEntry(1, 3, "committed", (1, 2), 2e-3))
        assert journal.open_commands() == (set(), {})

    def test_merge_unions_and_sorts(self):
        a, b = CommandJournal(), CommandJournal()
        a.append(JournalEntry(1, 1, "declare-failed", (0,), 0.0))
        b.append(JournalEntry(2, 1, "declare-failed", (2,), 1e-3))
        b.append(JournalEntry(1, 1, "declare-failed", (0,), 0.0))
        a.merge(b.entries())
        assert len(a) == 2
        assert a.max_epoch() == 2


class TestEnsembleBasics:
    def test_requires_at_least_two_members(self):
        sim = Simulator()
        net = CloudNetwork(sim, rtt_jitter_frac=0.0)
        egress = EgressRecorder(sim)
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=egress,
                         costs=COSTS, net=net, n_threads=2)
        with pytest.raises(ValueError):
            OrchestratorEnsemble(sim, chain, n=1)

    def test_default_chain_has_no_gate(self):
        sim = Simulator()
        egress = EgressRecorder(sim)
        chain = FTCChain(sim, ch_n(2, n_threads=2), f=1, deliver=egress,
                         costs=COSTS, n_threads=2)
        assert chain.gate is None

    def test_ensemble_installs_gate_and_servers(self):
        sim, chain, ensemble = _setup()
        assert chain.gate is ensemble.gate
        for member in ensemble.members:
            assert member.server_name in chain.net.servers

    def test_recovers_chain_failure_through_journal(self):
        sim, chain, ensemble = _setup()
        sim.schedule_callback(0.02, lambda: chain.fail_position(1))
        sim.run(until=0.08)
        assert ensemble.leader is not None
        assert ensemble.history and ensemble.history[0].recovered
        assert not chain.server_at(1).failed
        # Every command went through the replicated journal first: the
        # full declare -> re-steer -> committed lifecycle is journaled
        # on a quorum, and the chain applied the one side-effecting step.
        steps = {entry.step for member in ensemble.members
                 for entry in member.journal.entries()}
        assert {"declare-failed", "re-steer", "committed"} <= steps
        assert [c.kind for c in ensemble.gate.applied] == ["re-steer"]


class TestFailover:
    def test_leader_crash_before_detection(self):
        sim, chain, ensemble = _setup(seed=2)

        def crash_leader():
            leader = ensemble.leader
            assert leader is not None
            leader.crash()

        sim.schedule_callback(0.02, lambda: chain.fail_position(1))
        sim.schedule_callback(0.021, crash_leader)
        sim.run(until=0.12)
        assert ensemble.leader is not None
        epochs = [epoch for epoch, _ in ensemble.election_log]
        assert len(epochs) == len(set(epochs))
        assert any(event.recovered for event in ensemble.history)
        assert not chain.server_at(1).failed

    def test_leader_death_mid_recovery_resumes_from_journal(self):
        sim, chain, ensemble = _setup(seed=4)
        state = {}

        def hook(phase, positions):
            if phase == "fetching" and "crashed" not in state:
                state["crashed"] = True
                leader = ensemble.leader
                if leader is not None:
                    leader.crash()

        ensemble.recovery_hooks.append(hook)
        sim.schedule_callback(0.02, lambda: chain.fail_position(1))
        sim.run(until=0.15)
        assert state.get("crashed"), "fetching hook never fired"
        assert any(event.recovered for event in ensemble.history)
        assert not chain.server_at(1).failed
        replayed = [event for event in ensemble.telemetry.timeline.events
                    if event.kind == "journal-replayed"]
        assert replayed, "successor did not replay the journal"

    def test_stale_leader_resume_is_fenced(self):
        sim, chain, ensemble = _setup(seed=3)

        def pause_leader():
            leader = ensemble.leader
            assert leader is not None
            leader.pause(0.03)  # longer than the lease: successor certain

        sim.schedule_callback(0.02, pause_leader)
        sim.schedule_callback(0.025, lambda: chain.fail_position(2))
        sim.run(until=0.12)
        assert ensemble.leader is not None
        assert ensemble.gate.fenced_commands > 0
        assert len(ensemble.leaders_with_valid_lease()) <= 1
        assert any(event.recovered for event in ensemble.history)

    def test_no_epoch_won_twice_across_churn(self):
        sim, chain, ensemble = _setup(seed=5)

        def churn(round_no):
            leader = ensemble.leader
            if leader is not None:
                leader.crash()
                sim.schedule_callback(12e-3, leader.restart)
            if round_no < 3:
                sim.schedule_callback(20e-3, lambda: churn(round_no + 1))

        sim.schedule_callback(0.015, lambda: churn(0))
        sim.run(until=0.12)
        epochs = [epoch for epoch, _ in ensemble.election_log]
        assert len(epochs) == len(set(epochs))
        assert len(ensemble.leaders_with_valid_lease()) <= 1
