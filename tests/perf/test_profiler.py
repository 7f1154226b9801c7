"""StageProfiler: recording, reporting, exports, and the null path."""

import json

import pytest

from repro.core import FTCChain
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.perf import (
    NULL_PROFILER,
    NullProfiler,
    STAGES,
    STAGE_TREE,
    StageProfiler,
    collapsed_lines,
    exclusive_seconds,
    speedscope_doc,
)
from repro.sim import RandomStreams, Simulator
from repro.telemetry import MetricRegistry, Telemetry


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step=1e-3):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestRecording:
    def test_add_accumulates_calls_and_seconds(self):
        prof = StageProfiler(clock=FakeClock(step=1e-3))
        for _ in range(3):
            t0 = prof.t0()
            prof.add("stm/commit", t0)
        assert prof.calls["stm/commit"] == 3
        # Each t0()/add() pair brackets exactly one clock step.
        assert abs(prof.wall_s("stm/commit") - 3e-3) < 1e-12

    def test_add_with_batch_count(self):
        prof = StageProfiler(clock=FakeClock())
        t0 = prof.t0()
        prof.add("depvec/merge", t0, n=7)
        assert prof.calls["depvec/merge"] == 7

    def test_count_adds_no_wall_time(self):
        prof = StageProfiler(clock=FakeClock())
        prof.count("channel/ack", n=2)
        assert prof.calls["channel/ack"] == 2
        assert prof.wall_s("channel/ack") == 0.0

    def test_merge_folds_aggregates(self):
        a = StageProfiler(clock=FakeClock())
        b = StageProfiler(clock=FakeClock())
        for prof in (a, b):
            t0 = prof.t0()
            prof.add("buffer/hold", t0)
        a.merge(b)
        assert a.calls["buffer/hold"] == 2
        assert abs(a.wall_s("buffer/hold") - 2e-3) < 1e-12


class TestReport:
    def _sample(self):
        prof = StageProfiler(clock=FakeClock(step=1e-3))
        for stage in ("stm/commit", "engine/dispatch", "buffer/hold"):
            t0 = prof.t0()
            prof.add(stage, t0)
        prof.count("custom/stage")
        return prof

    def test_taxonomy_order_then_extras(self):
        report = self._sample().report()
        keys = list(report)
        assert keys[:3] == ["engine/dispatch", "stm/commit", "buffer/hold"]
        assert keys[3] == "custom/stage"

    def test_per_packet_fields_only_with_packets(self):
        prof = self._sample()
        bare = prof.report()
        assert "us_per_packet" not in bare["stm/commit"]
        amortized = prof.report(packets=100)
        entry = amortized["stm/commit"]
        assert entry["us_per_packet"] == entry["wall_s"] * 1e6 / 100
        assert entry["calls_per_packet"] == 0.01

    def test_publish_mirrors_into_registry(self):
        prof = self._sample()
        registry = MetricRegistry()
        prof.publish(registry, packets=10)
        snap = registry.snapshot()
        assert snap["perf/stm/commit/calls"] == 1
        assert snap["perf/stm/commit/wall_us"] > 0
        assert "perf/stm/commit/us_per_packet" in snap


class TestNullProfiler:
    def test_singleton_is_disabled(self):
        assert isinstance(NULL_PROFILER, NullProfiler)
        assert NULL_PROFILER.enabled is False
        assert StageProfiler.enabled is True

    def test_all_hooks_are_noops(self):
        t0 = NULL_PROFILER.t0()
        NULL_PROFILER.add("stm/commit", t0)
        NULL_PROFILER.count("stm/commit")
        NULL_PROFILER.publish(MetricRegistry(), packets=5)
        assert NULL_PROFILER.report() == {}
        assert NULL_PROFILER.wall_s("stm/commit") == 0.0

    def test_no_instance_state(self):
        assert NullProfiler.__slots__ == ()

    def test_shared_aggregates_are_read_only(self):
        # One object serves every disabled component of every run: a
        # stray write must fail, not leak counts into the next run.
        for mapping in (NULL_PROFILER.calls, NULL_PROFILER.seconds):
            assert dict(mapping) == {}
            with pytest.raises(TypeError):
                mapping["stm/commit"] = 1


class _CountingOffProfiler:
    """A disabled profiler that records every call made to it."""

    enabled = False

    def __init__(self):
        self.touched = []

    def t0(self):
        self.touched.append("t0")
        return 0.0

    def add(self, stage, t0, n=1):
        self.touched.append(("add", stage))

    def count(self, stage, n=1):
        self.touched.append(("count", stage))


def _run_lossy_ch5(profiler, seed=3):
    """Ch-5 ring, f=2, reliable links over an impaired wire, 5 ms."""
    sim = Simulator()
    if profiler.enabled:
        sim.profiler = profiler
    released = []
    chain = FTCChain(sim, ch_n(5, n_threads=2), f=2,
                     deliver=released.append, n_threads=2, seed=seed,
                     reliable_links=True,
                     telemetry=Telemetry(max_trace_events=0,
                                         profiler=profiler))
    chain.net.impair_data(seed=seed, drop_rate=0.02, dup_rate=0.01,
                          reorder_rate=0.01, corrupt_rate=0.005)
    chain.start()
    generator = TrafficGenerator(
        sim, chain.ingress, rate_pps=1e5, flows=balanced_flows(64, 2),
        packet_size=256, arrivals="poisson", streams=RandomStreams(seed))
    sim.run(until=5e-3)
    generator.stop()
    chain.net.clear_data_impairment()
    sim.run(until=15e-3)
    assert len(released) == generator.sent == 503
    return sim


class TestDataPathProbes:
    """PROTOCOL.md §13.4: a disabled profiler is tested, never called;
    an enabled one records exactly the stage calls it always did."""

    def test_off_means_never_called(self):
        profiler = _CountingOffProfiler()
        _run_lossy_ch5(profiler)
        assert profiler.touched == []

    def test_on_records_the_same_stage_calls(self):
        profiler = StageProfiler()
        sim = _run_lossy_ch5(profiler)
        # Counted on the commit before the probes were guarded, and
        # again when hops began delivering in per-flow order.
        assert profiler.calls == {
            "engine/dispatch": 20220, "piggyback/append": 507,
            "depvec/merge": 5030, "piggyback/trim": 4517,
            "stm/commit": 2515, "channel/frame": 4092,
            "channel/ack": 1684, "buffer/hold": 505,
            "buffer/release": 505}
        assert sim._eid == 20226


class TestStageTree:
    def test_every_stage_has_a_tree_entry(self):
        assert set(STAGE_TREE) == set(STAGES)

    def test_single_root(self):
        roots = [s for s, p in STAGE_TREE.items() if p is None]
        assert roots == ["engine/dispatch"]

    def test_parents_are_stages(self):
        for parent in STAGE_TREE.values():
            assert parent is None or parent in STAGES


class TestExports:
    def _stages(self):
        # dispatch 10ms total; commit 3ms and hold 4ms inside it;
        # release 1ms inside hold.
        return {
            "engine/dispatch": {"calls": 10, "wall_s": 10e-3},
            "stm/commit": {"calls": 5, "wall_s": 3e-3},
            "buffer/hold": {"calls": 4, "wall_s": 4e-3},
            "buffer/release": {"calls": 4, "wall_s": 1e-3},
        }

    def test_exclusive_subtracts_children(self):
        self_time = exclusive_seconds(self._stages())
        assert abs(self_time["engine/dispatch"] - 3e-3) < 1e-12
        assert abs(self_time["buffer/hold"] - 3e-3) < 1e-12
        assert abs(self_time["stm/commit"] - 3e-3) < 1e-12
        assert abs(self_time["buffer/release"] - 1e-3) < 1e-12

    def test_exclusive_clamps_at_zero(self):
        stages = {"engine/dispatch": {"calls": 1, "wall_s": 1e-3},
                  "stm/commit": {"calls": 1, "wall_s": 2e-3}}
        assert exclusive_seconds(stages)["engine/dispatch"] == 0.0

    def test_collapsed_lines_are_rooted_integer_micros(self):
        lines = collapsed_lines(self._stages())
        by_stack = dict(line.rsplit(" ", 1) for line in lines)
        assert by_stack["engine/dispatch"] == "3000"
        assert by_stack["engine/dispatch;buffer/hold;buffer/release"] == \
            "1000"

    def test_speedscope_doc_shape(self):
        doc = speedscope_doc(self._stages(), name="unit")
        assert doc["$schema"].startswith("https://www.speedscope.app")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"]) == 4
        assert profile["endValue"] == round(sum(profile["weights"]), 3)
        # Every frame index must resolve.
        n_frames = len(doc["shared"]["frames"])
        assert all(0 <= i < n_frames
                   for stack in profile["samples"] for i in stack)
        json.dumps(doc)  # must be serializable
