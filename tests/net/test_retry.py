"""Control-plane retry policy tests (timeouts, backoff, impairment)."""

import random

import pytest

from repro.net import Network, RetryPolicy, reliable_call
from repro.net.retry import call_with_deadline
from repro.sim import Simulator


def make_net(sim):
    net = Network(sim, hop_delay_s=10e-6, bandwidth_bps=10e9)
    net.add_server("a")
    net.add_server("b")
    return net


def run_call(sim, net, handler=lambda: 42, policy=None, until=1.0, **kw):
    policy = policy or RetryPolicy()
    box = []

    def caller():
        result = yield from reliable_call(net, "a", "b", handler,
                                          policy=policy, **kw)
        box.append((result, sim.now))

    sim.process(caller())
    sim.run(until=until)
    assert box, "reliable_call never returned"
    return box[0]


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_factor=2.0,
                             backoff_max_s=4e-3, jitter_frac=0.0)
        assert policy.backoff_s(1) == pytest.approx(1e-3)
        assert policy.backoff_s(2) == pytest.approx(2e-3)
        assert policy.backoff_s(3) == pytest.approx(4e-3)
        assert policy.backoff_s(4) == pytest.approx(4e-3)  # capped

    def test_backoff_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=1e-3, jitter_frac=0.2)
        rng = random.Random(7)
        draws = [policy.backoff_s(1, rng) for _ in range(100)]
        assert all(0.8e-3 <= d <= 1.2e-3 for d in draws)
        assert len(set(draws)) > 1

    def test_deadline_is_rtt_aware(self):
        """A WAN RTT must stretch the deadline past the LAN floor."""
        policy = RetryPolicy(timeout_s=2e-3, rtt_multiplier=3.0)
        assert policy.deadline_s(0.0, 0.0) == pytest.approx(2e-3)
        assert policy.deadline_s(49.5e-3, 0.0) == pytest.approx(148.5e-3)


class TestCallWithDeadline:
    """One attempt, no retry and no counters: what the retained-log
    fetch and the reconfiguration state transfer use."""

    def _race(self, fail_peer):
        sim = Simulator()
        net = make_net(sim)
        if fail_peer:
            net.servers["b"].fail()
        box = []

        def caller():
            box.append((yield from call_with_deadline(
                net, "a", "b", lambda: 42, 1e-3)))
            box.append(sim.now)

        sim.process(caller())
        sim.run(until=1.0)
        return box, net

    def test_answered_call_returns_its_value(self):
        (outcome, at), net = self._race(fail_peer=False)
        assert outcome == (True, 42) and at < 1e-3
        assert net.control_retries == net.control_timeouts == 0

    def test_silence_returns_at_the_deadline(self):
        (outcome, at), net = self._race(fail_peer=True)
        assert outcome == (False, None)
        assert at == pytest.approx(1e-3)
        assert net.control_retries == net.control_timeouts == 0


class TestReliableCall:
    def test_clean_network_single_attempt(self):
        sim = Simulator()
        net = make_net(sim)
        result, _ = run_call(sim, net)
        assert result.ok and result.value == 42
        assert result.attempts == 1 and result.retries == 0

    def test_dead_peer_bounded_time(self):
        sim = Simulator()
        net = make_net(sim)
        net.servers["b"].fail()
        policy = RetryPolicy(timeout_s=1e-3, max_attempts=3,
                             backoff_base_s=0.5e-3, jitter_frac=0.0)
        result, elapsed = run_call(sim, net, policy=policy)
        assert not result.ok
        assert result.attempts == 3
        # 3 deadlines + 2 backoffs (1 + 2 ms), nothing hangs.
        assert elapsed == pytest.approx(3 * 1e-3 + 0.5e-3 + 1e-3, rel=0.05)

    def test_retries_through_drop_rate(self):
        """Acceptance: a 30% control-message drop rate never hangs a
        caller -- every call completes, retries absorb the losses."""
        sim = Simulator()
        net = make_net(sim)
        net.impair(drop_rate=0.3, seed=3)
        policy = RetryPolicy(timeout_s=0.5e-3, max_attempts=8,
                             backoff_base_s=0.1e-3, jitter_frac=0.0)
        results = []

        def caller(i):
            result = yield from reliable_call(net, "a", "b", lambda: i,
                                              policy=policy)
            results.append(result)

        for i in range(60):
            sim.process(caller(i))
        sim.run(until=1.0)
        assert len(results) == 60
        assert all(r.ok for r in results)
        assert net.control_drops > 0
        assert sum(r.retries for r in results) > 0

    def test_duplicated_responses_are_safe(self):
        sim = Simulator()
        net = make_net(sim)
        net.impair(dup_rate=1.0, seed=1)
        result, _ = run_call(sim, net)
        assert result.ok and result.value == 42
        assert net.control_dups > 0

    def test_impairment_expires(self):
        sim = Simulator()
        net = make_net(sim)
        net.impair(drop_rate=1.0, duration_s=5e-3, seed=2)
        policy = RetryPolicy(timeout_s=1e-3, max_attempts=20,
                             backoff_base_s=0.5e-3, jitter_frac=0.0)
        result, elapsed = run_call(sim, net, policy=policy)
        # Total blackout for 5 ms, then the first clean attempt wins.
        assert result.ok
        assert elapsed > 5e-3
        assert result.retries > 0

    def test_extra_delay_still_succeeds(self):
        sim = Simulator()
        net = make_net(sim)
        net.impair(extra_delay_s=0.3e-3, delay_jitter_s=0.1e-3, seed=4)
        result, _ = run_call(sim, net)
        assert result.ok
