"""StageProfiler: counting, reporting, and the null path."""

import pytest

from repro.core import FTCChain
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.perf import NULL_PROFILER, NullProfiler, STAGES, StageProfiler
from repro.sim import RandomStreams, Simulator
from repro.telemetry import MetricRegistry, Telemetry


class TestRecording:
    def test_count_accumulates_calls(self):
        prof = StageProfiler()
        for _ in range(3):
            prof.count("stm/commit")
        assert prof.calls == {"stm/commit": 3}

    def test_count_with_batch_n(self):
        prof = StageProfiler()
        prof.count("depvec/merge", n=7)
        prof.count("depvec/merge", 2)
        assert prof.calls["depvec/merge"] == 9

    def test_count_adds_no_wall_time(self):
        # Counts only: a report carries no clock reading at all.
        prof = StageProfiler()
        prof.count("channel/ack", n=2)
        assert prof.report(packets=4) == {
            "channel/ack": {"calls": 2, "calls_per_packet": 0.5}}


class TestReport:
    def _sample(self):
        prof = StageProfiler()
        for stage in ("stm/commit", "engine/dispatch", "buffer/hold"):
            prof.count(stage)
        prof.count("custom/stage")
        return prof

    def test_taxonomy_order_then_extras(self):
        report = self._sample().report()
        keys = list(report)
        assert keys[:3] == ["engine/dispatch", "stm/commit", "buffer/hold"]
        assert keys[3] == "custom/stage"
        assert set(keys[:3]) <= set(STAGES)

    def test_per_packet_fields_only_with_packets(self):
        prof = self._sample()
        assert prof.report()["stm/commit"] == {"calls": 1}
        assert prof.report(packets=100)["stm/commit"] == {
            "calls": 1, "calls_per_packet": 0.01}

    def test_publish_mirrors_into_registry(self):
        registry = MetricRegistry()
        self._sample().publish(registry)
        snap = registry.snapshot()
        assert snap["perf/stm/commit/calls"] == 1
        assert set(snap) == {f"perf/{stage}/calls" for stage in (
            "stm/commit", "engine/dispatch", "buffer/hold", "custom/stage")}


class TestNullProfiler:
    def test_singleton_is_disabled(self):
        assert isinstance(NULL_PROFILER, NullProfiler)
        assert NULL_PROFILER.enabled is False
        assert StageProfiler.enabled is True

    def test_all_hooks_are_noops(self):
        NULL_PROFILER.count("stm/commit")
        NULL_PROFILER.count("depvec/merge", n=3)
        assert NULL_PROFILER.report() == {}
        assert NULL_PROFILER.report(packets=5) == {}

    def test_no_instance_state(self):
        assert NullProfiler.__slots__ == ()

    def test_shared_aggregates_are_read_only(self):
        # One object serves every disabled component of every run: a
        # stray write must fail, not leak counts into the next run.
        assert dict(NULL_PROFILER.calls) == {}
        with pytest.raises(TypeError):
            NULL_PROFILER.calls["stm/commit"] = 1


class _CountingOffProfiler:
    """A disabled profiler that records every call made to it."""

    enabled = False

    def __init__(self):
        self.touched = []

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
