"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(1.5)
        times.append(sim.now)
        yield sim.timeout(2.5)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [1.5, 4.0]


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="hello")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 3, "c"))
    sim.process(proc(sim, 1, "a"))
    sim.process(proc(sim, 2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in "abcd":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_visible_to_parent():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(2)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert results == [(2.0, 42)]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    seen = []

    def waiter(sim, event):
        value = yield event
        seen.append((sim.now, value))

    def firer(sim, event):
        yield sim.timeout(5)
        event.succeed("boom")

    event = sim.event()
    sim.process(waiter(sim, event))
    sim.process(firer(sim, event))
    sim.run()
    assert seen == [(5.0, "boom")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    caught = []

    def waiter(sim, event):
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    event = sim.event()
    sim.process(waiter(sim, event))
    event.fail(ValueError("nope"))
    sim.run()
    assert caught == ["nope"]


def test_unhandled_failure_propagates_out_of_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise RuntimeError("boom")

    sim.process(proc(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_run_until_time_stops_exactly():
    sim = Simulator()
    ticks = []

    def proc(sim):
        while True:
            yield sim.timeout(1)
            ticks.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=5.5)
    assert ticks == [1, 2, 3, 4, 5]
    assert sim.now == 5.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return "done"

    assert sim.run(until=sim.process(child(sim))) == "done"
    assert sim.now == 3.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def attacker(sim, proc):
        yield sim.timeout(2)
        proc.interrupt(cause="failure")

    proc = sim.process(victim(sim))
    sim.process(attacker(sim, proc))
    sim.run()
    assert log == [(2.0, "failure")]


def test_interrupt_terminated_process_rejected():
    sim = Simulator()

    def victim(sim):
        yield sim.timeout(1)

    proc = sim.process(victim(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue_waiting():
    sim = Simulator()
    log = []

    def victim(sim):
        deadline = sim.timeout(10)
        try:
            yield deadline
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield sim.timeout(1)
        log.append(("resumed", sim.now))

    proc = sim.process(victim(sim))

    def attacker(sim):
        yield sim.timeout(4)
        proc.interrupt()

    sim.process(attacker(sim))
    sim.run()
    assert log == [("interrupted", 4.0), ("resumed", 5.0)]


def test_yield_non_event_rejected():
    sim = Simulator()

    def proc(sim):
        yield 42

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_any_of_triggers_on_first():
    sim = Simulator()
    results = []

    def proc(sim):
        first = sim.timeout(1, value="fast")
        second = sim.timeout(5, value="slow")
        outcome = yield AnyOf(sim, [first, second])
        results.append((sim.now, list(outcome.values())))

    sim.process(proc(sim))
    sim.run()
    assert results == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    results = []

    def proc(sim):
        events = [sim.timeout(t, value=t) for t in (3, 1, 2)]
        outcome = yield AllOf(sim, events)
        results.append((sim.now, sorted(outcome.values())))

    sim.process(proc(sim))
    sim.run()
    assert results == [(3.0, [1, 2, 3])]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        yield AllOf(sim, [])
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [0.0]


def test_schedule_callback_runs_at_time():
    sim = Simulator()
    hits = []
    sim.schedule_callback(2.5, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [2.5]


def test_step_without_events_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_spawning():
    sim = Simulator()
    order = []

    def grandchild(sim):
        yield sim.timeout(1)
        order.append("grandchild")

    def child(sim):
        yield sim.process(grandchild(sim))
        order.append("child")

    def parent(sim):
        yield sim.process(child(sim))
        order.append("parent")

    sim.process(parent(sim))
    sim.run()
    assert order == ["grandchild", "child", "parent"]


def test_many_processes_scale():
    sim = Simulator()
    counter = []

    def proc(sim, start):
        yield sim.timeout(start)
        counter.append(start)

    for i in range(1000):
        sim.process(proc(sim, i))
    sim.run()
    assert len(counter) == 1000
    assert counter == sorted(counter)


def test_process_waiting_on_already_processed_event():
    sim = Simulator()
    log = []
    event = sim.event()
    event.succeed("early")
    sim.run()  # processes the event with no listeners

    def late(sim):
        value = yield event
        log.append(value)

    sim.process(late(sim))
    sim.run()
    assert log == ["early"]
