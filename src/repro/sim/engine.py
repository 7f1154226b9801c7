"""Discrete-event simulation engine.

This module is the foundation of the reproduction: every server, NIC,
link, middlebox thread, and protocol endpoint in the system is a
:class:`Process` advancing in *virtual time* managed by a
:class:`Simulator`.  Measuring throughput and latency in virtual time
means the (slow) Python interpreter never pollutes results -- a point
the DESIGN.md cost model depends on.

The programming model is generator-based, similar in spirit to SimPy:
a process is a generator that yields :class:`Event` objects and is
resumed when those events trigger::

    def worker(sim):
        yield sim.timeout(1.5)          # sleep in virtual time
        done = sim.event()
        sim.process(helper(sim, done))  # spawn a child process
        value = yield done              # wait for the child's signal

Processes can be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupt` inside the generator -- used for failure injection
and for wounding transactions in the STM.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "AnyOf",
    "AllOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

#: Scheduling priorities; lower values run first among same-time events.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the simulation API."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies an arbitrary ``cause`` describing
    why (e.g. a failure notice, or a transaction wound).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, then either succeeds with a value or
    fails with an exception.  All registered callbacks run when the
    simulator processes the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused",
                 "_cancelled")

    _PENDING = object()

    #: The callable :meth:`Simulator.step` runs before the callbacks;
    #: only :class:`_Callback` events carry one.
    _call = None

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._cancelled:
            # A late completion of a withdrawn event (e.g. a control-call
            # response arriving after its caller timed out and retried).
            return self
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every waiting process; if nothing
        waits and the failure is never *defused*, the simulator raises
        it at the end of the run so errors never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self._cancelled:
            return self
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay=delay)
        return self

    def cancel(self) -> None:
        """Withdraw a pending or in-flight event.

        A cancelled event never runs its callbacks: if it is already on
        the heap (e.g. the losing deadline of an ``AnyOf`` race) it is
        discarded when popped, without advancing the clock; a later
        ``succeed``/``fail`` becomes a silent no-op.  Only cancel events
        nothing is waiting on -- waiters of a cancelled event are never
        resumed.
        """
        if self.processed:
            return
        self._cancelled = True

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # The most-constructed event: Event.__init__ and
        # Simulator._schedule written out, same fields and heap entry.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        sim._eid += 1
        heapq.heappush(sim._queue,
                       (sim.now + delay, PRIORITY_NORMAL, sim._eid, self))


class _Callback(Event):
    """The event behind :meth:`Simulator.schedule_callback`."""

    __slots__ = ("_call",)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        sim._schedule(self, priority=PRIORITY_URGENT)


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The generator's ``return`` value becomes the event value, so a
    parent may ``result = yield child_process``.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = Initialize(sim, self)
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError(f"{self!r} cannot interrupt itself")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.sim._schedule(interrupt_event, priority=PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the triggered event's outcome."""
        # A stale wakeup: the process was already resumed by another
        # event (e.g. interrupted while waiting), then this one fired.
        # (The hot path reads the slots behind triggered/processed.)
        if self._value is not Event._PENDING:
            if not event._ok and not event._defused:
                event._defused = True
            return
        if event is not self._target and self._target is not None:
            # The process is waiting on a different event; this can only
            # be an interrupt (scheduled urgently) -- deliver it.
            self._detach_from_target()
        self.sim._active_process = self
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                event._defused = True
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._target = None
            self._ok = True
            self._value = stop.value
            self.sim._schedule(self)
            return
        except BaseException as exc:
            self._target = None
            self._ok = False
            self._value = exc
            self._defused = False
            self.sim._schedule(self)
            return
        finally:
            self.sim._active_process = None
        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_target!r}, "
                "which is not an Event")
        if next_target.callbacks is None:
            # Already-processed event: resume immediately (next step).
            immediate = Event(self.sim)
            immediate._ok = next_target._ok
            immediate._value = next_target._value
            if not next_target._ok:
                immediate._defused = True
            immediate.callbacks.append(self._resume)
            self._target = immediate
            self.sim._schedule(immediate, priority=PRIORITY_URGENT)
        else:
            next_target.callbacks.append(self._resume)
            self._target = next_target

    def _detach_from_target(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not target.callbacks and not target.triggered:
                # Nobody is left waiting: withdraw the event so a
                # resource dispatcher never assigns an item to it (an
                # orphaned queue getter would silently swallow the
                # item otherwise).
                target._cancelled = True


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._remaining = len(self.events)
        for event in self.events:
            if event.processed:
                self._check(event)
            elif not self.triggered:
                event.callbacks.append(self._check)
        if not self.events and not self.triggered:
            self.succeed(self._results())

    def _results(self) -> dict:
        return {event: event._value for event in self.events
                if event.processed and event._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok and not event._defused:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._results())


class AllOf(_Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok and not event._defused:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining <= 0 and all(e.processed for e in self.events):
            self.succeed(self._results())


class Simulator:
    """The virtual-time event loop."""

    def __init__(self):
        #: Current virtual time, in seconds.  A plain attribute (it is
        #: read tens of times per packet); only the engine writes it.
        self.now = 0.0
        self._queue: list = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Optional :class:`~repro.perf.StageProfiler`; when set,
        #: :meth:`step` counts each dispatched event under the
        #: ``engine/dispatch`` stage.  ``None`` keeps the disabled path
        #: at one attribute load per step (fig5/fig13 byte-identical).
        self.profiler = None

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._eid, event))

    def schedule_callback(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Run a plain callable at ``now + delay`` (no process needed)."""
        event = _Callback(self)
        event._ok = True
        event._value = None
        event._call = callback
        # _schedule written out (a fresh event is never already queued).
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._queue,
                       (self.now + delay, PRIORITY_NORMAL, self._eid, event))
        return event

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (cancelled events are discarded)."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        if event._cancelled:
            # Discarded without running callbacks or advancing the
            # clock; the event stays unprocessed forever.
            return
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        call = event._call
        if call is not None:
            call()
        for callback in callbacks:
            callback(event)
        if self.profiler is not None:
            self.profiler.count("engine/dispatch")
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until time ``until``, event ``until``, or queue exhaustion.

        Returns the value of ``until`` when it is an event.
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        f"event {stop!r} triggered")
                self.step()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError(
                f"cannot run until {horizon!r}: it is in the past "
                f"(now={self.now!r})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self.now = horizon
        return None
