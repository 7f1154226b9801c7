"""Queueing resources for the simulation engine.

Two primitives cover every shared resource in the reproduction:

* :class:`Store` -- a FIFO buffer of items (packet queues, mailboxes).
* :class:`RateLimiter` -- a deterministic serial server that spaces
  items by a service interval (NIC pps caps, link byte rates).

All wait events returned by these resources can be cancelled, which
the STM uses to revoke lock requests from wounded transactions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Store", "RateLimiter", "CancelledError"]


class CancelledError(Exception):
    """A pending resource wait was cancelled."""


class _Waiter(Event):
    """An event in a resource's wait queue; supports cancellation."""

    __slots__ = ("resource", "item")

    def __init__(self, sim: Simulator, resource: Any, item: Any = None):
        # Event.__init__ written out (one per queue get), same fields.
        self.sim = sim
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = None
        self._scheduled = False
        self._defused = False
        self._cancelled = False
        self.resource = resource
        self.item = item

    def cancel(self) -> None:
        """Withdraw this wait; the waiting process sees CancelledError."""
        if self.triggered:
            return
        self.fail(CancelledError())
        self._defused = False  # still raised in the waiting process


class Store:
    """A FIFO item buffer with optional capacity.

    ``put`` returns an event that triggers when the item is accepted
    (immediately unless the store is full); ``get`` returns an event
    that triggers with the next item.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 name: str = "store"):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[_Waiter] = deque()
        self._putters: Deque[_Waiter] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> _Waiter:
        event = _Waiter(self.sim, self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        items = self.items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        # Only a waiting getter can use the new item; no putter waits,
        # because a putter waits solely on a full store.
        if self._getters:
            self._dispatch()
        return True

    def get(self) -> _Waiter:
        event = _Waiter(self.sim, self)
        self._getters.append(event)
        # An empty store has nothing to hand out, and no putter to
        # admit either: a putter waits solely on a full store.
        if self.items:
            self._dispatch()
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        # The freed slot matters only to a waiting putter; no getter
        # waits on a store that held an item.
        if self._putters:
            self._dispatch()
        return item

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                if putter._value is not Event._PENDING or putter._cancelled:
                    continue
                self.items.append(putter.item)
                putter.succeed()
                progressed = True
            while self._getters and self.items:
                getter = self._getters.popleft()
                if getter._value is not Event._PENDING or getter._cancelled:
                    # A withdrawn getter (its process was interrupted
                    # away) must not consume an item: succeed() on a
                    # cancelled event is a silent no-op.
                    continue
                getter.succeed(self.items.popleft())
                progressed = True


class RateLimiter:
    """A deterministic serial server.

    Items are admitted no faster than ``rate`` per second; each item may
    additionally carry a per-item service time through ``cost_fn``
    (e.g. bytes / bandwidth).  Used for NIC packet-rate caps and link
    serialization.
    """

    def __init__(self, sim: Simulator, rate: float,
                 cost_fn: Optional[Callable[[Any], float]] = None,
                 name: str = "rate-limiter"):
        if rate <= 0:
            raise SimulationError("rate must be positive")
        self.sim = sim
        self.rate = rate
        self._slot_s = 1.0 / rate
        self.cost_fn = cost_fn
        self.name = name
        self._next_free = 0.0
        self.admitted = 0

    def admission_delay(self, item: Any = None) -> float:
        """Reserve a service slot; returns the delay until admission."""
        service = self._slot_s
        if self.cost_fn is not None:
            service += self.cost_fn(item)
        now = self.sim.now
        start = self._next_free
        if start < now:
            start = now
        self._next_free = done = start + service
        self.admitted += 1
        return done - now

    def admit(self, item: Any = None) -> Event:
        """Event that fires when the item has been serviced."""
        return self.sim.timeout(self.admission_delay(item))

    @property
    def backlog(self) -> float:
        """Seconds of work already queued ahead of a new arrival."""
        return max(0.0, self._next_free - self.sim.now)
