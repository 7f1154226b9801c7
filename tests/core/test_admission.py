"""Property tests for overload admission control (PROTOCOL.md §12.2).

The gate's contract under *any* offer schedule:

* token conservation -- admitted never exceeds offered, and never
  exceeds what the bucket could physically have refilled;
* strict shed-priority ordering -- at any single instant a higher
  class is admitted whenever a lower one is (monotone reserve floors);
* bounded queues stay bounded -- a capacity Store never holds more
  than ``capacity`` items under adversarial put/get interleavings;
* backpressure hard stop -- at the high watermark everything sheds,
  so nothing new can push a nearly-full queue over its bound.
"""

import itertools

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.admission import (
    HIGH_WATERMARK,
    AdmissionControl,
    BackpressureBus,
    PressureSource,
    TokenBucket,
)
from repro.sim import Simulator
from repro.sim.resources import Store


class _Clock:
    """Stand-in simulator: admission only reads ``now``."""

    def __init__(self):
        self.now = 0.0


_pids = itertools.count(1)


class _Pkt:
    def __init__(self, prio=None):
        self.pid = next(_pids)
        self.meta = {} if prio is None else {"prio": prio}


# -- token bucket ----------------------------------------------------------


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate_pps"):
            TokenBucket(rate_pps=0, burst=10)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate_pps=100, burst=0.5)

    def test_burst_then_starve_then_refill(self):
        bucket = TokenBucket(rate_pps=1000, burst=4)
        assert [bucket.take(0.0) for _ in range(5)] == [True] * 4 + [False]
        # 2 ms at 1000 pps refills exactly 2 tokens.
        assert bucket.take(2e-3)
        assert bucket.take(2e-3)
        assert not bucket.take(2e-3)

    def test_floor_blocks_take(self):
        bucket = TokenBucket(rate_pps=1000, burst=4)
        assert not bucket.take(0.0, floor=3.5)   # 4 < 1 + 3.5
        assert bucket.take(0.0, floor=3.0)       # 4 >= 1 + 3
        assert bucket.tokens == 3.0

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=5e-3),
                              st.integers(min_value=0, max_value=50)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_conservation_under_any_schedule(self, schedule):
        """admitted <= offered and admitted <= burst + rate * elapsed."""
        rate, burst = 1e4, 16.0
        bucket = TokenBucket(rate_pps=rate, burst=burst)
        now = 0.0
        offered = admitted = 0
        for gap_s, n in schedule:
            now += gap_s
            for _ in range(n):
                offered += 1
                if bucket.take(now):
                    admitted += 1
        assert admitted <= offered
        assert admitted <= burst + rate * now + 1e-6
        assert 0.0 <= bucket.tokens <= burst

    def test_set_rate_keeps_accrued_tokens(self):
        bucket = TokenBucket(rate_pps=1000, burst=8)
        bucket.take(0.0)
        bucket.set_rate(1.0, now=1e-3)  # refills 1 token first
        bucket.refill(1e-3)
        assert bucket.tokens == pytest.approx(8.0)
        # From here on refill is glacial: next token takes ~1 s.
        for _ in range(8):
            assert bucket.take(1e-3)
        assert not bucket.take(2e-3)


# -- pressure sources / bus ------------------------------------------------


class TestBackpressureBus:
    def test_empty_bus_is_calm(self):
        assert BackpressureBus().level() == 0.0

    def test_level_is_worst_source(self):
        bus = BackpressureBus()
        bus.add("a", lambda: 1, 10)
        bus.add("b", lambda: 9, 10)
        assert bus.level() == pytest.approx(0.9)

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="bound"):
            PressureSource("bad", lambda: 0, 0)

    def test_peak_and_callable_bound(self):
        occ = {"n": 0}
        bound = {"n": 8}
        source = PressureSource("q", lambda: occ["n"], lambda: bound["n"])
        occ["n"] = 6
        assert source.level() == pytest.approx(0.75)
        # Chaos shrinks the bound below already-enqueued work: level
        # saturates at 1.0 and bound_peak remembers the old bound, so
        # the auditor does not flag legally-enqueued occupancy.
        bound["n"] = 4
        assert source.level() == 1.0
        assert source.peak == 6
        assert source.bound_peak == 8
        assert BackpressureBus().sources == []

    def test_sources_report_occupancy_bound_and_peak(self):
        bus = BackpressureBus()
        bus.add("q", lambda: 3, 10).level()
        (source,) = bus.sources
        assert source.name == "q"
        assert source.occupancy() == 3
        assert source.bound == 10
        assert source.peak == 3


# -- bounded queues --------------------------------------------------------


class TestBoundedStore:
    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=8)),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_capacity_never_exceeded(self, schedule, capacity):
        """Adversarial put/get interleavings: occupancy stays within
        capacity and ``try_put`` refuses exactly when full."""
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        put = taken = refused = 0
        for is_put, n in schedule:
            for _ in range(n):
                if is_put:
                    if store.try_put(object()):
                        put += 1
                    else:
                        refused += 1
                        assert len(store) == capacity
                elif store.try_get() is not None:
                    taken += 1
                assert len(store) <= capacity
        assert put - taken == len(store)
        assert refused == 0 or put >= capacity


# -- admission gate --------------------------------------------------------


def _gate(rate=1e4, n_classes=3, bus=None, **kw):
    return AdmissionControl(_Clock(), rate_pps=rate, n_classes=n_classes,
                            bus=bus, **kw)


class TestAdmissionControl:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate_pps"):
            _gate(rate=0)
        with pytest.raises(ValueError, match="n_classes"):
            _gate(n_classes=0)
        assert 0.0 < HIGH_WATERMARK <= 1.0

    def test_floors_monotone_decreasing(self):
        gate = _gate(n_classes=5)
        assert gate.reserve == sorted(gate.reserve, reverse=True)
        assert gate.reserve[-1] == 0.0

    def test_unstamped_packet_is_top_class(self):
        gate = _gate(n_classes=3)
        assert gate.class_of(_Pkt()) == 2
        assert gate.class_of(_Pkt(prio=99)) == 2
        assert gate.class_of(_Pkt(prio=-4)) == 0

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=2e-3),
                              st.integers(min_value=0, max_value=2)),
                    min_size=1, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_counters_conserve_and_shed_ordering(self, schedule):
        """offered == admitted + shed overall and per class, and at
        every instant a higher class admits whenever a lower one does
        (the §12.2 strict-ordering invariant, checked pointwise by
        probing token availability against each floor)."""
        gate = _gate(rate=5e3, n_classes=3)
        clock = gate.sim
        for gap_s, cls in schedule:
            clock.now += gap_s
            # Pointwise ordering: the set of classes that *would* admit
            # right now must be upward-closed in priority.
            gate.bucket.refill(clock.now)
            would = [gate.bucket.tokens >= 1.0 + gate.reserve[c]
                     for c in range(3)]
            for lower, upper in zip(would, would[1:]):
                assert upper or not lower
            gate.offer(_Pkt(prio=cls))
        assert gate.offered == gate.admitted + gate.shed
        for c in range(3):
            assert gate.offered_by_class[c] == (
                gate.admitted_by_class[c] + gate.shed_by_class[c])
        assert gate.offered == sum(gate.offered_by_class)

    def test_low_class_sheds_first_under_sustained_load(self):
        gate = _gate(rate=1e3, n_classes=3)
        clock = gate.sim
        for i in range(300):
            clock.now = i * 1e-4  # 10x the sustainable rate
            gate.offer(_Pkt(prio=i % 3))
        frac = [gate.shed_by_class[c] / gate.offered_by_class[c]
                for c in range(3)]
        assert frac[0] >= frac[1] >= frac[2]
        assert frac[0] > frac[2]  # strictly: class 0 bears the brunt

    def test_backpressure_hard_stop_sheds_everything(self):
        bus = BackpressureBus()
        bus.add("q", lambda: 9, 10)   # 0.9 >= high watermark 0.85
        gate = _gate(bus=bus)
        for cls in range(3):
            assert not gate.offer(_Pkt(prio=cls))
        assert gate.admitted == 0
        # All three shed at the hard stop, before touching the bucket.
        assert gate.shed_by_class == [1, 1, 1]
        assert gate.bucket.tokens == gate.bucket.burst

    def test_pressure_inflates_floors_low_class_starves(self):
        bus = BackpressureBus()
        bus.add("q", lambda: 8, 10)   # 0.8: below hard stop
        gate = _gate(rate=1e4, bus=bus)
        # Drain two tokens, then class 0's inflated floor exceeds the
        # remaining tokens while the top class still fits.
        assert gate.offer(_Pkt(prio=2))
        assert gate.offer(_Pkt(prio=2))
        assert not gate.offer(_Pkt(prio=0))
        assert gate.offer(_Pkt(prio=2))

    def test_set_scale_throttles_refill(self):
        gate = _gate(rate=1e4)
        clock = gate.sim
        # Drain the burst.
        while gate.bucket.take(0.0):
            pass
        gate.set_scale(0.5)
        clock.now = 2e-3  # 5e3 pps * 2 ms = 10 tokens (half rate)
        gate.bucket.refill(clock.now)
        assert gate.bucket.tokens == pytest.approx(10.0)
        gate.set_scale(1.0)
        assert gate.scale == 1.0
        assert gate.bucket.rate_pps == pytest.approx(1e4)
