"""Unit tests for Store, Resource, and RateLimiter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (CancelledError, Interrupt, RateLimiter, Resource,
                       SimulationError, Simulator, Store)
from repro.sim.resources import _Waiter


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer(sim):
            yield store.put("a")
            yield store.put("b")

        def consumer(sim):
            got.append((yield store.get()))
            got.append((yield store.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            got.append(((yield store.get()), sim.now))

        def producer(sim):
            yield sim.timeout(3)
            yield store.put("x")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert got == [("x", 3.0)]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield store.put("a")
            log.append(("a-in", sim.now))
            yield store.put("b")
            log.append(("b-in", sim.now))

        def consumer(sim):
            yield sim.timeout(5)
            yield store.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert log == [("a-in", 0.0), ("b-in", 5.0)]

    def test_fifo_ordering_of_getters(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(consumer(sim, "first"))
        sim.process(consumer(sim, "second"))

        def producer(sim):
            yield sim.timeout(1)
            yield store.put(1)
            yield store.put(2)

        sim.process(producer(sim))
        sim.run()
        assert got == [("first", 1), ("second", 2)]

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_try_get_empty_returns_none(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None

    def test_try_get_returns_item(self):
        sim = Simulator()
        store = Store(sim)
        store.try_put("z")
        assert store.try_get() == "z"

    def test_cancel_pending_get(self):
        sim = Simulator()
        store = Store(sim)
        outcomes = []

        def consumer(sim):
            request = store.get()
            try:
                yield request
            except CancelledError:
                outcomes.append("cancelled")

        def canceller(sim, request_holder):
            yield sim.timeout(1)
            request_holder[0].cancel()

        # Start the consumer, grab its pending request from the queue.
        sim.process(consumer(sim))
        sim.run(until=0.5)
        pending = [store._getters[0]]
        sim.process(canceller(sim, pending))
        sim.run()
        assert outcomes == ["cancelled"]
        # A later put should not be consumed by the cancelled getter.
        store.try_put("live")
        assert store.try_get() == "live"

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)


class TestResource:
    def test_capacity_limits_concurrency(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        active_log = []

        def worker(sim, tag):
            req = res.request()
            yield req
            active_log.append((tag, "start", sim.now, res.count))
            yield sim.timeout(10)
            res.release(req)

        for tag in range(4):
            sim.process(worker(sim, tag))
        sim.run()
        starts = [entry[2] for entry in active_log]
        assert starts == [0, 0, 10, 10]
        assert all(entry[3] <= 2 for entry in active_log)

    def test_release_unowned_rejected(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        fake = res.request()
        sim.run()
        res.release(fake)
        with pytest.raises(SimulationError):
            res.release(fake)

    def test_cancel_waiting_request(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        held = res.request()
        sim.run()
        assert held.triggered

        waiting = res.request()
        waiting.cancel()
        outcomes = []

        def proc(sim):
            try:
                yield waiting
            except CancelledError:
                outcomes.append("cancelled")

        sim.process(proc(sim))
        sim.run()
        assert outcomes == ["cancelled"]
        # Releasing must not grant to the cancelled waiter.
        res.release(held)
        assert res.count == 0


class TestRateLimiter:
    def test_spacing_at_rate(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate=10.0)  # 0.1 s per item
        finish_times = []

        def sender(sim):
            for _ in range(3):
                yield limiter.admit()
                finish_times.append(round(sim.now, 9))

        sim.process(sender(sim))
        sim.run()
        assert finish_times == [0.1, 0.2, 0.3]

    def test_idle_period_resets_next_free(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate=10.0)
        finish_times = []

        def sender(sim):
            yield limiter.admit()
            finish_times.append(sim.now)
            yield sim.timeout(10)
            yield limiter.admit()
            finish_times.append(sim.now)

        sim.process(sender(sim))
        sim.run()
        assert finish_times == [0.1, 10.2]

    def test_cost_fn_adds_service_time(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate=10.0, cost_fn=lambda item: item)
        finish = []

        def sender(sim):
            yield limiter.admit(0.4)  # 0.1 + 0.4
            finish.append(sim.now)

        sim.process(sender(sim))
        sim.run()
        assert finish == [0.5]

    def test_backlog_reflects_queued_work(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate=1.0)
        limiter.admission_delay()
        limiter.admission_delay()
        assert limiter.backlog == 2.0

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            RateLimiter(sim, rate=0)

    def test_admitted_counter(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate=100.0)
        for _ in range(5):
            limiter.admission_delay()
        assert limiter.admitted == 5


# -- Store dispatches only when a counterpart waits ---------------------------
#
# try_put wakes the dispatcher only for a waiting getter, try_get only
# for a waiting putter, get only when an item is there.  The skipped
# calls can do nothing because a putter waits solely on a full store:
# a store with room has no waiting putter, and an empty one (capacity
# is positive) is never full.  The reference below dispatches after
# every operation, as the store did before; both run the same random
# schedule and must hand the same item to the same waiter at the same
# instant, and end on the same event id.

class _AlwaysDispatchStore(Store):
    def try_put(self, item):
        if self.is_full:
            return False
        self.items.append(item)
        self._dispatch()
        return True

    def get(self):
        event = _Waiter(self.sim, self)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self):
        if not self.items:
            return None
        item = self.items.popleft()
        self._dispatch()
        return item


def _play(store_class, capacity, schedule):
    """Play ``schedule`` -- (gap, kind, arg) triples -- against one
    store; returns the observable history and the final event id."""
    sim = Simulator()
    store = store_class(sim, capacity=capacity)
    history = []
    getters = []   # (process, {"event": the get it is waiting on})

    def getter(tag, box):
        box["event"] = store.get()
        try:
            item = yield box["event"]
            history.append(("got", tag, item, sim.now))
        except CancelledError:
            history.append(("get-cancelled", tag, sim.now))
        except Interrupt:
            history.append(("get-interrupted", tag, sim.now))

    def putter(tag, item):
        yield store.put(item)
        history.append(("put-accepted", tag, item, sim.now))

    def act(step, kind, arg):
        if kind == "put":
            sim.process(putter(step, f"item{step}"))
        elif kind == "get":
            box = {}
            getters.append((sim.process(getter(step, box)), box))
        elif kind == "try_put":
            history.append(("try_put", step,
                            store.try_put(f"item{step}"), sim.now))
        elif kind == "try_get":
            history.append(("try_get", step, store.try_get(), sim.now))
        elif getters:
            # Withdraw one getter, once: by cancelling its wait or by
            # interrupting its process away from it.
            process, box = getters[arg % len(getters)]
            if "event" in box and process.is_alive \
                    and not box.get("withdrawn"):
                box["withdrawn"] = True
                if kind == "cancel":
                    box["event"].cancel()
                else:
                    process.interrupt("schedule")

    when = 0.0
    for step, (gap, kind, arg) in enumerate(schedule):
        when += gap
        sim.schedule_callback(
            when, lambda step=step, kind=kind, arg=arg: act(step, kind, arg))
    sim.run()
    history.append(("left", list(store.items)))
    return history, sim._eid


_store_schedules = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1e-6]),
              st.sampled_from(["put", "get", "try_put", "try_get",
                               "cancel", "interrupt"]),
              st.integers(0, 7)),
    max_size=40)


class TestStoreDispatchesOnlyForAWaitingCounterpart:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 3, float("inf")]), _store_schedules)
    def test_same_history_and_event_ids_as_always_dispatching(
            self, capacity, schedule):
        assert (_play(Store, capacity, schedule) ==
                _play(_AlwaysDispatchStore, capacity, schedule))

    def test_reference_is_not_vacuous(self):
        schedule = [(0.0, "get", 0), (1e-6, "try_put", 0),
                    (0.0, "try_put", 0), (0.0, "put", 0), (0.0, "put", 0),
                    (1e-6, "try_get", 0), (0.0, "get", 0)]
        history, eid = _play(Store, 2, schedule)
        assert [entry[0] for entry in history] == [
            "try_put", "try_put", "got", "put-accepted", "try_get",
            "put-accepted", "got", "left"]
        assert (history, eid) == _play(_AlwaysDispatchStore, 2,
                                               schedule)
