"""Edge-case tests for the simulation engine (failure plumbing etc.)."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, SimulationError, Simulator


class TestFailurePlumbing:
    def test_defused_failure_does_not_crash_run(self):
        sim = Simulator()
        event = sim.event()
        event.fail(ValueError("handled elsewhere"))
        event._defused = True  # handled out of band
        sim.run()  # no raise

    def test_condition_failure_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def proc(sim):
            bad = sim.event()
            good = sim.timeout(10)
            condition = AllOf(sim, [bad, good])
            bad.fail(RuntimeError("member died"))
            try:
                yield condition
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc(sim))
        sim.run()
        assert caught == ["member died"]

    def test_any_of_failure_first(self):
        sim = Simulator()
        caught = []

        def proc(sim):
            bad = sim.event()
            condition = AnyOf(sim, [bad, sim.timeout(10)])
            bad.fail(KeyError("boom"))
            try:
                yield condition
            except KeyError:
                caught.append(True)

        sim.process(proc(sim))
        sim.run()
        assert caught == [True]

    def test_exception_inside_process_fails_its_event(self):
        sim = Simulator()
        outcomes = []

        def child(sim):
            yield sim.timeout(1)
            raise ValueError("child broke")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                outcomes.append(str(exc))

        sim.process(parent(sim))
        sim.run()
        assert outcomes == ["child broke"]


class TestEventSemantics:
    def test_event_value_before_trigger_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().value

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_succeed_with_delay(self):
        sim = Simulator()
        seen = []
        event = sim.event()
        event.succeed("late", delay=5.0)

        def proc(sim):
            value = yield event
            seen.append((sim.now, value))

        sim.process(proc(sim))
        sim.run()
        assert seen == [(5.0, "late")]

    def test_interrupt_cause_accessible(self):
        sim = Simulator()
        causes = []

        def victim(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                causes.append(intr.cause)

        proc = sim.process(victim(sim))
        sim.schedule_callback(1.0, lambda: proc.interrupt({"reason": "test"}))
        sim.run()
        assert causes == [{"reason": "test"}]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run():
            sim = Simulator()
            trace = []

            def worker(sim, tag, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((sim.now, tag))

            for tag, delay in (("a", 0.3), ("b", 0.7), ("c", 0.31)):
                sim.process(worker(sim, tag, delay))
            sim.run()
            return trace

        assert run() == run()

    def test_two_simulators_are_independent(self):
        first, second = Simulator(), Simulator()
        first.timeout(5)
        second.timeout(1)
        first.run()
        second.run()
        assert first.now == 5 and second.now == 1

    def test_cross_simulator_condition_rejected(self):
        first, second = Simulator(), Simulator()
        with pytest.raises(SimulationError):
            AllOf(first, [second.timeout(1)])
