"""Live reconfiguration: zero-loss versioned chain updates (§11).

End-to-end: every operation kind (classifier swap, rescale, migrate,
evacuate, insert, remove) applied to a chain under offered load on
impaired-but-reliable links must commit with zero egress loss and zero
per-flow reordering.  Unit/property coverage: config-version
monotonicity, epoch fencing of stale switches, journal open-reconfig
bookkeeping, ReliableChannel re-binding after a rescale, and the
orchestrator noticing route changes (so a post-rescale crash of the
*new* server is still detected).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.auditor import ShadowOracle
from repro.core import FTCChain
from repro.core.costs import CostModel
from repro.core.fencing import EpochGate, StaleConfigError, StaleEpochError
from repro.core.reconfig import (
    ClassifierRule,
    ClassifierSet,
    ReconfigOp,
    apply_reconfig,
)
from repro.middlebox import ch_n
from repro.middlebox.monitor import Monitor
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import Orchestrator
from repro.orchestration.journal import CommandJournal, JournalEntry
from repro.sim import Simulator
from repro.telemetry import Telemetry, validate_chrome_trace

FAST_COSTS = CostModel(cycle_jitter_frac=0.0)
RATE_PPS = 2e4
DURATION_S = 24e-3
DRAIN_S = 40e-3


def _build_chain(seed=3, telemetry=None, reliable=True, impaired=True,
                 length=3):
    sim = Simulator()
    oracle = ShadowOracle(track_order=True)
    chain = FTCChain(sim, ch_n(length, n_threads=2), f=1, deliver=oracle,
                     costs=FAST_COSTS, n_threads=2, seed=seed,
                     telemetry=telemetry, reliable_links=reliable)
    chain.start()
    if impaired:
        chain.net.impair_data(drop_rate=0.02, dup_rate=0.01,
                              reorder_rate=0.01, corrupt_rate=0.005,
                              seed=seed)
    return sim, chain, oracle


def _drive_one(op, seed=3, telemetry=None, length=3):
    sim, chain, oracle = _build_chain(seed=seed, telemetry=telemetry,
                                      length=length)
    generator = TrafficGenerator(sim, chain.ingress, rate_pps=RATE_PPS,
                                 flows=balanced_flows(8, 2))
    outcome = {}

    def drive():
        outcome["report"] = yield from apply_reconfig(chain, op)

    sim.schedule_callback(DURATION_S * 0.4, lambda: sim.process(drive()))
    sim.run(until=DURATION_S)
    generator.stop()
    chain.net.heal()
    chain.net.clear_impairment()
    sim.run(until=DURATION_S + DRAIN_S)
    return chain, generator, oracle, outcome.get("report")


def _all_ops():
    return [
        ReconfigOp(kind="classifier", classifier=ClassifierSet(
            version=1, rules=(ClassifierRule(action="allow"),))),
        ReconfigOp(kind="rescale", position=1, n_threads=4),
        ReconfigOp(kind="migrate", position=1),
        ReconfigOp(kind="evacuate", position=2),
        ReconfigOp(kind="insert", index=1,
                   middlebox=Monitor(name="probe")),
        ReconfigOp(kind="remove", middlebox_name="monitor2"),
    ]


class TestZeroLossPerOperation:
    @pytest.mark.parametrize("op", _all_ops(), ids=lambda op: op.kind)
    def test_op_commits_with_zero_loss_zero_reorder(self, op):
        chain, generator, oracle, report = _drive_one(op)
        assert report is not None and report.committed
        assert generator.sent > 0
        assert oracle.released == generator.sent  # zero loss
        assert oracle.out_of_order == 0  # per-flow order preserved
        assert chain.config_version >= 1

    def test_rescale_of_an_extension_position(self):
        """Ch-1 with f=1 adds a §5.1 extension at p1 that hosts no
        middlebox: its rescale resizes the server alone."""
        op = ReconfigOp(kind="rescale", position=1, n_threads=4)
        chain, generator, oracle, report = _drive_one(op, length=1)
        assert chain.n_mboxes == 1 and report.committed
        assert len(chain.server_at(1).nic.queues) == 4
        assert oracle.released == generator.sent
        assert oracle.out_of_order == 0

    def test_back_to_back_ops_under_load(self):
        sim, chain, oracle = _build_chain(seed=9)
        generator = TrafficGenerator(sim, chain.ingress, rate_pps=RATE_PPS,
                                     flows=balanced_flows(8, 2))
        reports = []

        def drive(op):
            def run():
                reports.append((yield from apply_reconfig(chain, op)))
            sim.process(run())

        sim.schedule_callback(6e-3, lambda: drive(
            ReconfigOp(kind="rescale", position=0, n_threads=3)))
        sim.schedule_callback(14e-3, lambda: drive(
            ReconfigOp(kind="migrate", position=2)))
        sim.run(until=DURATION_S)
        generator.stop()
        chain.net.heal()
        chain.net.clear_impairment()
        sim.run(until=DURATION_S + DRAIN_S)
        assert [r.committed for r in reports] == [True, True]
        assert oracle.released == generator.sent
        assert oracle.out_of_order == 0
        assert chain.config_version == 2


class TestChannelRebind:
    def test_rescale_resets_and_rebinds_hop_channels(self):
        """Satellite: hop channels into a replaced instance must not
        keep retransmitting to the retired endpoint."""
        op = ReconfigOp(kind="rescale", position=1, n_threads=3)
        chain, generator, oracle, report = _drive_one(op, seed=5)
        assert report.committed
        # The replacement is sized by the op; the chain default is not.
        server = chain.server_at(op.position)
        assert server.n_cores == len(server.nic.queues) == op.n_threads
        assert chain.n_threads == 2
        # The replaced hop's channels were reset at the switch and
        # re-bound on the next send: packets kept flowing afterwards.
        assert oracle.released == generator.sent
        stats = chain.channel_stats()
        assert stats.get("retransmissions", 0) > 0  # layer was active
        # No channel may still reference a failed (retired) endpoint.
        for (src, dst) in chain._channels:
            assert not chain.net.servers[chain.route[src]].failed
            assert not chain.net.servers[chain.route[dst]].failed


class TestRouteObserver:
    def test_rescale_resets_miss_streak_and_new_server_is_monitored(self):
        """Satellite: the orchestrator must observe route changes --
        a heartbeat-miss streak accrued against the old instance must
        not carry over, and a crash of the *new* server must still be
        detected and recovered."""
        sim, chain, oracle = _build_chain(seed=11, impaired=False)
        orchestrator = Orchestrator(sim, chain,
                                    heartbeat_interval_s=1e-3)
        orchestrator.start()
        generator = TrafficGenerator(sim, chain.ingress, rate_pps=RATE_PPS,
                                     flows=balanced_flows(8, 2))
        sim.run(until=4e-3)
        # A poisoned miss streak, as if the old instance had been slow.
        orchestrator._misses[1] = 2
        done = orchestrator.request_reconfig(
            ReconfigOp(kind="rescale", position=1, n_threads=3))
        sim.run(until=12e-3)
        assert not done.is_alive  # the op completed
        assert orchestrator.reconfig_history[-1].committed
        assert orchestrator._misses[1] == 0  # observer reset the streak
        # Crash the replacement: detection must fire for the new server.
        new_name = chain.route[1]
        chain.server_at(1).fail()
        sim.run(until=60e-3)
        generator.stop()
        sim.run(until=80e-3)
        assert any(1 in event.positions for event in orchestrator.history)
        assert chain.route[1] != new_name  # recovered onto a spare
        orchestrator.stop()


class TestConfigVersioning:
    @settings(max_examples=25, deadline=None)
    @given(versions=st.lists(st.integers(min_value=1, max_value=40),
                             min_size=1, max_size=12))
    def test_apply_config_is_strictly_monotonic(self, versions):
        sim = Simulator()
        chain = FTCChain(sim, ch_n(2, n_threads=2), f=1,
                         deliver=lambda packet: None, costs=FAST_COSTS,
                         n_threads=2, seed=0)
        applied = 0
        for version in versions:
            if version > chain.config_version:
                chain.apply_config(version)
                applied = version
            else:
                with pytest.raises(StaleConfigError):
                    chain.apply_config(version)
            assert chain.config_version == applied

    @settings(max_examples=25, deadline=None)
    @given(epochs=st.lists(st.integers(min_value=1, max_value=30),
                           min_size=1, max_size=12))
    def test_gate_fences_stale_reconfig_switches(self, epochs):
        sim = Simulator()
        gate = EpochGate(sim)
        fence = 0
        for epoch in epochs:
            if epoch >= fence:
                gate.apply(epoch, "reconfig-switch", (1,))
                fence = epoch
            else:
                with pytest.raises(StaleEpochError):
                    gate.apply(epoch, "reconfig-switch", (1,))
            assert gate.max_epoch == fence
        switches = [c for c in gate.applied if c.kind == "reconfig-switch"]
        assert [c.epoch for c in switches] == sorted(c.epoch
                                                     for c in switches)


class TestJournalOpenReconfigs:
    def _entry(self, seq, step, positions=(1,), detail="op=migrate position=1"):
        return JournalEntry(epoch=1, seq=seq, step=step,
                            positions=tuple(positions), t=0.0, detail=detail)

    def test_prepare_without_cover_is_open(self):
        journal = CommandJournal()
        journal.append(self._entry(1, "reconfig-prepare"))
        assert journal.open_commands() == (
            set(), {(1,): "op=migrate position=1"})

    def test_commit_and_abort_close(self):
        journal = CommandJournal()
        journal.append(self._entry(1, "reconfig-prepare"))
        journal.append(self._entry(2, "reconfig-switch"))
        journal.append(self._entry(3, "reconfig-commit"))
        journal.append(self._entry(4, "reconfig-prepare", positions=(2,),
                                   detail="op=evacuate position=2"))
        journal.append(self._entry(5, "reconfig-abort", positions=(2,),
                                   detail="op=evacuate position=2"))
        assert journal.open_commands() == (set(), {})

    def test_switch_alone_stays_open(self):
        journal = CommandJournal()
        journal.append(self._entry(1, "reconfig-prepare"))
        journal.append(self._entry(2, "reconfig-switch"))
        _, open_reconfigs = journal.open_commands()
        assert (1,) in open_reconfigs

    def test_parse_round_trips_resumable_kinds(self):
        for op in (ReconfigOp(kind="rescale", position=2, n_threads=3),
                   ReconfigOp(kind="migrate", position=0),
                   ReconfigOp(kind="evacuate", position=1),
                   ReconfigOp(kind="remove", middlebox_name="monitor2")):
            assert ReconfigOp.parse(op.describe()) == op
        # Object-carrying kinds cannot ride in a journal detail string.
        classifier = ReconfigOp(kind="classifier",
                                classifier=ClassifierSet(version=1))
        insert = ReconfigOp(kind="insert", index=0,
                            middlebox=Monitor(name="x"))
        assert ReconfigOp.parse(classifier.describe()) is None
        assert ReconfigOp.parse(insert.describe()) is None


class TestReconfigTelemetry:
    def test_counters_and_ctrl_track_spans(self, tmp_path):
        telemetry = Telemetry()
        op = ReconfigOp(kind="rescale", position=1, n_threads=3)
        chain, generator, oracle, report = _drive_one(
            op, seed=7, telemetry=telemetry)
        assert report.committed
        counters = telemetry.registry.snapshot()
        assert counters["reconfig/prepares"] == 1
        assert counters["reconfig/switches"] == 1
        assert counters["reconfig/aborted"] == 0
        assert counters["reconfig/held_packets"] >= 1
        assert counters["reconfig/migrated_bytes"] > 0
        path = tmp_path / "trace.json"
        telemetry.export_chrome(str(path))
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        spans = [e for e in events
                 if e.get("name") == "reconfig:rescale"
                 and e.get("tid") == 9998]
        assert {e["ph"] for e in spans} == {"b", "e"}
        phases = [e for e in events
                  if str(e.get("name", "")).startswith("reconfig/")
                  and e.get("tid") == 9998]
        names = {e["name"] for e in phases}
        assert {"reconfig/preparing", "reconfig/draining",
                "reconfig/switching", "reconfig/committed"} <= names
