"""Brownout controller tests (PROTOCOL.md §12.3): hysteretic state
machine, exact knob restore at exit, 1:1 journal coverage."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.admission import AdmissionControl
from repro.flight.slo import SLOBreach, SLOObjective
from repro.orchestration import BROWNOUT_STEPS, BrownoutController
from repro.orchestration.brownout import (
    ADMISSION_FACTOR,
    ENTER_AFTER,
    EXIT_AFTER,
    FEEDBACK_FACTOR,
    MAX_LEVEL,
    SAMPLING_FACTOR,
    _check_policy,
)


class _Clock:
    def __init__(self):
        self.now = 0.0


class _Watchdog:
    """Evaluation-tick source: only the listener surface matters."""

    def __init__(self, interval_s=2e-3):
        self.interval_s = interval_s
        self.listeners = []

    def tick(self, breaches):
        for listener in list(self.listeners):
            listener(breaches)


class _Buffer:
    def __init__(self):
        self.feedback_min_interval_s = 50e-6


_BREACH = [SLOBreach(SLOObjective("p99_latency_us", "<=", 800.0),
                     observed=2500.0, t=0.0)]


def _controller(journal=None, buffer=None):
    sim = _Clock()
    watchdog = _Watchdog()
    admission = AdmissionControl(sim, rate_pps=1e4)
    brownout = BrownoutController(sim, watchdog, admission=admission,
                                  buffer=buffer, journal=journal)
    return sim, watchdog, admission, brownout


def _ticks(watchdog, breaches, n):
    for _ in range(n):
        watchdog.tick(breaches)


_POLICY = dict(enter_after=ENTER_AFTER, exit_after=EXIT_AFTER,
               max_level=MAX_LEVEL, admission_factor=ADMISSION_FACTOR,
               sampling_factor=SAMPLING_FACTOR,
               feedback_factor=FEEDBACK_FACTOR)


class TestPolicyValidation:
    def test_accepts_the_constants(self):
        _check_policy(**_POLICY)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(enter_after=0), "hysteresis"),
        (dict(exit_after=0), "hysteresis"),
        (dict(max_level=0), "max_level"),
        (dict(admission_factor=0.0), "admission_factor"),
        (dict(admission_factor=1.5), "admission_factor"),
        (dict(sampling_factor=0.5), "sampling"),
        (dict(feedback_factor=0.5), "feedback"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            _check_policy(**{**_POLICY, **kwargs})


class TestHysteresis:
    def test_enters_only_after_sustained_breaches(self):
        _, watchdog, _, brownout = _controller()
        _ticks(watchdog, _BREACH, ENTER_AFTER - 1)
        assert brownout.level == 0
        watchdog.tick(_BREACH)
        assert brownout.level == 1
        assert brownout.transitions[0].kind == "enter"

    def test_flapping_indicator_never_transitions(self):
        _, watchdog, _, brownout = _controller()
        for _ in range(20):
            watchdog.tick(_BREACH)
            watchdog.tick([])
        assert brownout.level == 0
        assert brownout.transitions == []

    def test_escalates_to_cap_then_holds(self):
        _, watchdog, _, brownout = _controller()
        _ticks(watchdog, _BREACH, (MAX_LEVEL + 2) * ENTER_AFTER)
        assert brownout.level == MAX_LEVEL == 3
        kinds = [tr.kind for tr in brownout.transitions]
        assert kinds == ["enter", "escalate", "escalate"]

    def test_exit_walks_down_one_level_per_window(self):
        _, watchdog, _, brownout = _controller()
        _ticks(watchdog, _BREACH, 3 * ENTER_AFTER)
        assert brownout.level == 3
        clean = 0
        while brownout.level > 0:
            watchdog.tick([])
            clean += 1
        assert clean == 3 * EXIT_AFTER
        kinds = [tr.kind for tr in brownout.transitions]
        assert kinds == ["enter", "escalate", "escalate",
                         "deescalate", "deescalate", "exit"]
        assert brownout.balanced()
        assert kinds.count("enter") == kinds.count("exit")

    @given(st.lists(st.booleans(), min_size=1, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_level_always_within_bounds(self, breach_pattern):
        sim, watchdog, admission, brownout = _controller()
        for i, breached in enumerate(breach_pattern):
            sim.now = i * watchdog.interval_s
            watchdog.tick(_BREACH if breached else [])
            assert 0 <= brownout.level <= MAX_LEVEL
            # Scale tracks level exactly at every tick.
            assert admission.scale == pytest.approx(
                ADMISSION_FACTOR ** brownout.level)
        # Transition kinds are consistent with a walk on 0..max_level.
        level = 0
        for tr in brownout.transitions:
            level += 1 if tr.kind in ("enter", "escalate") else -1
            assert tr.level == level
        assert level == brownout.level


class TestKnobs:
    def test_all_knobs_applied_and_restored_exactly(self):
        buffer = _Buffer()
        base_feedback = buffer.feedback_min_interval_s
        sim, watchdog, admission, brownout = _controller(buffer=buffer)
        base_interval = watchdog.interval_s
        _ticks(watchdog, _BREACH, 2 * ENTER_AFTER)
        assert brownout.level == 2
        assert admission.scale == pytest.approx(0.25)
        assert watchdog.interval_s == pytest.approx(base_interval * 4)
        assert buffer.feedback_min_interval_s == pytest.approx(
            base_feedback * 16)
        _ticks(watchdog, [], 2 * EXIT_AFTER)
        assert brownout.level == 0
        # Exact restore -- not approximately, *exactly* the base value.
        assert admission.scale == 1.0
        assert watchdog.interval_s == base_interval
        assert buffer.feedback_min_interval_s == base_feedback
        assert admission.bucket.rate_pps == pytest.approx(
            admission.base_rate_pps)

    def test_timeline_renders(self):
        sim, watchdog, _, brownout = _controller()
        _ticks(watchdog, _BREACH, ENTER_AFTER - 1)
        sim.now = 4e-3
        watchdog.tick(_BREACH)
        assert brownout.timeline() == [
            "[4.000ms] brownout enter level=1 sustained breach: "
            "p99_latency_us<=800 observed=2500"]


class TestJournal:
    def test_every_transition_journaled_one_to_one(self):
        sink = []
        _, watchdog, _, brownout = _controller(journal=sink.append)
        _ticks(watchdog, _BREACH, 3 * ENTER_AFTER)
        _ticks(watchdog, [], 3 * EXIT_AFTER)
        assert brownout.level == 0
        assert len(brownout.transitions) == 6
        assert brownout.journaled == brownout.transitions
        assert sink == brownout.transitions
        for tr in sink:
            assert f"brownout-{tr.kind}" in BROWNOUT_STEPS

    def test_no_sink_means_no_journal_claims(self):
        _, watchdog, _, brownout = _controller()
        _ticks(watchdog, _BREACH, ENTER_AFTER)
        assert brownout.transitions and brownout.journaled == []
