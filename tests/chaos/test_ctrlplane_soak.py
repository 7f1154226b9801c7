"""Control-plane chaos soak + determinism regression (PROTOCOL.md §9).

The acceptance contract for the replicated control plane: seeded
schedules mixing chain crashes with orchestrator crashes, partitions,
and leader freezes must finish with zero invariant violations (the
auditor proves election safety on top of the §4/§5 data-plane
invariants), stale commands must actually get fenced, and every run
must be a pure function of its seed.  The scripted scenarios pin the
two worst moments to lose a leader: mid-recovery (journal resume) and
past its lease (stale resume, fenced).
"""

import pytest

from repro.chaos import (
    FaultInjector,
    FaultSpec,
    InvariantAuditor,
    ORCH_FAULT_KINDS,
    Scenario,
    ShadowOracle,
    Step,
    chaos_scenario,
    ctrlplane_scenario,
    run,
)
from repro.chaos.scenario import monitors
from repro.chaos.soak import CTRLPLANE_ELECTION, SOAK_COSTS
from repro.core import FTCChain
from repro.middlebox import ch_n
from repro.orchestration import OrchestratorEnsemble
from repro.sim import Simulator
from repro.telemetry import Telemetry


def run_ctrlplane_schedule(**params):
    return run(ctrlplane_scenario(**params))


def _harness(seed=7, n=3):
    sim = Simulator()
    oracle = ShadowOracle()
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=oracle,
                     costs=SOAK_COSTS, n_threads=2, seed=seed)
    chain.start()
    ensemble = OrchestratorEnsemble(sim, chain, n=n,
                                    election=CTRLPLANE_ELECTION,
                                    heartbeat_interval_s=1e-3)
    ensemble.start()
    auditor = InvariantAuditor(chain, oracle=oracle, orchestrator=ensemble)
    return sim, chain, ensemble, auditor


class TestOrchFaultSpecs:
    def test_orch_kinds_registered(self):
        assert set(ORCH_FAULT_KINDS) == {
            "orch-crash", "orch-partition", "stale-leader-resume"}

    def test_duration_required_for_windowed_kinds(self):
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec(kind="orch-partition", at_s=1e-3)
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec(kind="stale-leader-resume", at_s=1e-3)

    def test_plan_builders(self):
        specs = (
            FaultSpec(kind="orch-crash", at_s=1e-3, member=0,
                      restart_after_s=5e-3),
            FaultSpec(kind="orch-partition", at_s=2e-3, duration_s=4e-3),
            FaultSpec(kind="stale-leader-resume", at_s=3e-3,
                      duration_s=6e-3))
        assert [f.kind for f in specs] == list(ORCH_FAULT_KINDS)

    def test_describe_names_the_leader_or_a_member(self):
        """``member`` None targets the acting leader; a windowed kind
        states its window; a kind given a phase reads as armed."""
        specs = [
            FaultSpec(kind="orch-crash", at_s=1e-3),
            FaultSpec(kind="orch-crash", at_s=1e-3, member=0,
                      phase="fetching"),
            FaultSpec(kind="orch-partition", at_s=2e-3, duration_s=4e-3),
            FaultSpec(kind="orch-partition", at_s=2e-3, member=1,
                      duration_s=4e-3),
            FaultSpec(kind="stale-leader-resume", at_s=3e-3,
                      duration_s=6e-3),
            FaultSpec(kind="stale-leader-resume", at_s=3e-3, member=2,
                      duration_s=6e-3)]
        assert [spec.describe() for spec in specs] == [
            "orch-crash leader 1.00ms",
            "orch-crash m0 (armed @ 1.00ms)",
            "orch-partition leader for 4.00ms 2.00ms",
            "orch-partition m1 for 4.00ms 2.00ms",
            "stale-leader-resume leader for 6.00ms 3.00ms",
            "stale-leader-resume m2 for 6.00ms 3.00ms"]

    def test_injector_requires_ensemble_for_orch_kinds(self):
        sim, chain, _, _ = _harness()
        specs = [FaultSpec(kind="orch-crash", at_s=1e-3)]
        with pytest.raises(ValueError, match="ensemble"):
            FaultInjector(chain, None, specs).start()


class TestScriptedScenarios:
    def test_leader_crash_mid_recovery_journal_resume(self):
        """Chain fails; the leader dies in the fetching phase; the
        successor resumes from the journal and finishes the recovery."""
        sim, chain, ensemble, auditor = _harness(seed=11)
        state = {}

        def hook(phase, positions):
            if phase == "fetching" and "crashed" not in state:
                leader = ensemble.leader
                if leader is not None:
                    state["crashed"] = True
                    leader.crash()
                    sim.schedule_callback(25e-3, leader.restart)

        ensemble.recovery_hooks.append(hook)
        sim.schedule_callback(15e-3, lambda: chain.fail_position(1))
        sim.run(until=0.12)
        auditor.audit(quiescent=True)
        assert state.get("crashed")
        assert auditor.violations == []
        assert not chain.server_at(1).failed
        assert any(event.recovered for event in ensemble.history)

    def test_stale_leader_resume_plan_gets_fenced(self):
        """A scripted leader freeze past its lease: the successor takes
        over and the resumed stale leader's epoch is fenced."""
        sim, chain, ensemble, auditor = _harness(seed=3)
        injector = FaultInjector(chain, ensemble, [FaultSpec(
            kind="stale-leader-resume", at_s=20e-3, duration_s=30e-3)],
            ensemble=ensemble)
        injector.start()
        sim.schedule_callback(25e-3, lambda: chain.fail_position(2))
        sim.run(until=0.12)
        auditor.audit(quiescent=True)
        assert len(injector.injected) == 1
        assert auditor.violations == []
        assert ensemble.gate.fenced_commands > 0
        assert any(event.recovered for event in ensemble.history)
        assert len(ensemble.leaders_with_valid_lease()) <= 1

    def test_leader_paused_within_its_lease_resumes_leading(self):
        """A leader frozen for less than its 6 ms lease finds no
        successor: it resumes at its own epoch and still fails over a
        later chain crash."""
        telemetry = Telemetry()
        out = run(Scenario(
            chain=monitors(3), duration_s=30e-3, rate_pps=2e4,
            orchestrators=3,
            faults=(FaultSpec(kind="stale-leader-resume", at_s=8e-3,
                              duration_s=1e-3),),
            steps=(Step(15e-3, crash=1, expect="recovered"),)),
            telemetry=telemetry)
        election = [event.kind for event in telemetry.timeline.events
                    if event.component == "election"]
        assert election == ["elected", "leader-resumed"]
        assert out.ensemble.max_epoch == 1
        assert [event.recovered for event in out.failures] == [True]
        assert out.violations == []


@pytest.mark.soak_ctrlplane
class TestCtrlplaneSoak:
    def test_randomized_schedules_zero_violations(self):
        """Acceptance: seeded soak with orchestrator faults completes
        with zero violations, and fencing fires somewhere in the sweep."""
        fenced = 0
        for seed in range(4):
            result = run_ctrlplane_schedule(seed=seed, duration_s=80e-3)
            assert result.violations == [], (seed, result.violations)
            assert len(result.ensemble.election_log) >= 1
            fenced += result.ensemble.gate.fenced_commands
        assert fenced > 0, "no stale command was ever fenced"

    def test_same_seed_is_bit_identical(self):
        def fingerprint(result):
            ensemble = result.ensemble
            return (result.faults, len(ensemble.election_log),
                    ensemble.gate.fenced_commands, len(result.failures),
                    sum(e.recovered for e in result.failures),
                    result.oracle.released, result.chain.degraded,
                    [str(v) for v in result.violations])

        first = fingerprint(run_ctrlplane_schedule(seed=5, duration_s=60e-3))
        second = fingerprint(run_ctrlplane_schedule(seed=5, duration_s=60e-3))
        assert first == second

    def test_ctrlplane_experiment_trial_is_deterministic(self):
        """The failover-table experiment is a pure function of its
        (scenario, seed) inputs -- every column reproduces exactly."""
        from repro.experiments.ctrlplane import _one_trial

        first = _one_trial("leader-crash (mid-recovery)", seed=0)
        second = _one_trial("leader-crash (mid-recovery)", seed=0)
        assert first == second

    def test_default_soak_path_has_no_ensemble(self):
        """--orchestrators 1 (the default) must not allocate any
        ensemble machinery: no gate, no extra servers, plain history."""
        from repro.orchestration import Orchestrator

        result = run(chaos_scenario(
            seed=0, chain_length=3, f=1, max_faults=2, duration_s=30e-3))
        assert result.ensemble is None  # no elections, nothing fenced
        sim = Simulator()
        oracle = ShadowOracle()
        chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=oracle,
                         costs=SOAK_COSTS, n_threads=2, seed=0)
        assert chain.gate is None
        orch = Orchestrator(sim, chain)
        assert orch.epoch is None and orch.command_guard is None
        assert not any("ensemble" in name or "-orch" in name
                       for name in chain.net.servers)
