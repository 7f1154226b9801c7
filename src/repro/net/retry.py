"""Control-plane retry policy: timeouts + exponential backoff.

The paper assumes a reliable control plane (§6: the orchestrator and
control modules talk over TCP), but a lost or delayed control message
must never hang its caller -- recovery in particular (§5.2) has to make
progress under exactly the conditions that caused the failure it is
repairing.  :func:`reliable_call` wraps :meth:`Network.control_call`
with per-attempt deadlines and exponential backoff, and is used by the
orchestrator's heartbeats, the recovery state fetches, and the chaos
soak's impaired-control scenarios.

Deadlines are RTT-aware: a fixed timeout tuned for the LAN would fire
before a WAN response (Fig 13's inter-region fetches take 50--100 ms)
could possibly arrive, so each attempt waits at least
``rtt_multiplier * (sampled RTT + transfer time)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..sim import AnyOf

__all__ = ["RetryPolicy", "CallResult", "call_with_deadline", "reliable_call",
           "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry semantics for one class of control-plane calls."""

    #: Per-attempt deadline floor (the RTT-aware deadline may exceed it).
    timeout_s: float = 2e-3
    max_attempts: int = 5
    #: Sleep after the first timed-out attempt; doubles (by
    #: ``backoff_factor``) on each further timeout, capped at
    #: ``backoff_max_s``.
    backoff_base_s: float = 0.5e-3
    backoff_factor: float = 2.0
    backoff_max_s: float = 20e-3
    #: Uniform +/- fraction applied to each backoff when an RNG stream
    #: is supplied (decorrelates retry storms after a correlated fault).
    jitter_frac: float = 0.1
    #: Deadline = max(timeout_s, rtt_multiplier * (RTT + transfer)).
    rtt_multiplier: float = 3.0

    def backoff_s(self, attempt: int, rng=None) -> float:
        """Backoff before retry ``attempt`` (1-based count of timeouts)."""
        raw = min(self.backoff_base_s * self.backoff_factor ** (attempt - 1),
                  self.backoff_max_s)
        if rng is not None and self.jitter_frac > 0:
            raw *= 1.0 + rng.uniform(-self.jitter_frac, self.jitter_frac)
        return raw

    def deadline_s(self, rtt_s: float, transfer_s: float) -> float:
        return max(self.timeout_s, self.rtt_multiplier * (rtt_s + transfer_s))


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class CallResult:
    """Outcome of a :func:`reliable_call`."""

    ok: bool
    value: Any = None
    attempts: int = 1

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


def call_with_deadline(net, src: str, dst: str,
                       handler: Callable[[], object], deadline_s: float,
                       payload_bytes: int = 256, response_bytes: int = 256):
    """Generator (use with ``yield from``): one control call raced
    against a deadline; ``(True, value)``, or ``(False, None)`` when the
    deadline fires first.  The losing event is cancelled, so neither a
    stale deadline nor a late response fires into the void."""
    sim = net.sim
    call = net.control_call(src, dst, handler, payload_bytes=payload_bytes,
                            response_bytes=response_bytes)
    deadline = sim.timeout(deadline_s)
    yield AnyOf(sim, [call, deadline])
    if call.processed and call.ok:
        deadline.cancel()
        return True, call.value
    call.cancel()
    return False, None


def reliable_call(net, src: str, dst: str, handler: Callable[[], object],
                  policy: RetryPolicy = DEFAULT_RETRY_POLICY,
                  payload_bytes: int = 256, response_bytes: int = 256,
                  rng=None):
    """Generator (use with ``yield from``): a control call that retries.

    Each attempt is a :func:`call_with_deadline` with an RTT-aware
    deadline.  Returns a :class:`CallResult` --
    ``ok=False`` after ``max_attempts`` timeouts, so a dead peer or a
    fully partitioned control plane costs bounded time, never a hang.
    """
    sim = net.sim
    transfer = (payload_bytes + response_bytes) * 8.0 / net.control_bandwidth_bps
    for attempt in range(1, policy.max_attempts + 1):
        rtt = net.control_rtt(src, dst)
        ok, value = yield from call_with_deadline(
            net, src, dst, handler, policy.deadline_s(rtt, transfer),
            payload_bytes, response_bytes)
        if ok:
            if attempt > 1:
                net.control_retries += attempt - 1
                net.meter("net/control_retries", "control_retries")
            return CallResult(ok=True, value=value, attempts=attempt)
        if attempt < policy.max_attempts:
            yield sim.timeout(policy.backoff_s(attempt, rng))
    net.control_retries += policy.max_attempts - 1
    net.meter("net/control_retries", "control_retries")
    net.control_timeouts += 1
    net.meter("net/control_timeouts", "control_timeouts")
    return CallResult(ok=False, attempts=policy.max_attempts)
