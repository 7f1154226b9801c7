"""Self-time arithmetic of the layer tracer, on a fake clock."""

import pytest

from surface import LAYERS
from tracer import LayerTracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, seconds):
        self.t += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return LayerTracer(clock=clock)


def self_time(tracer, layer):
    return tracer.self_s[LAYERS.index(layer)]


def calls(tracer, layer):
    return tracer.calls[LAYERS.index(layer)]


def test_nested_span_is_subtracted_from_its_parent(tracer, clock):
    inner = tracer.wrap(lambda: clock.tick(3.0), "stm")

    def outer_body():
        clock.tick(1.0)
        inner()
        clock.tick(2.0)

    tracer.wrap(outer_body, "core.replica")()
    assert self_time(tracer, "stm") == 3.0
    assert self_time(tracer, "core.replica") == 3.0
    assert sum(tracer.self_s) == clock.t == 6.0
    assert tracer.child == 6.0  # handed up to a (non-existent) parent


def test_sibling_spans_both_count_against_the_parent(tracer, clock):
    first = tracer.wrap(lambda: clock.tick(1.0), "net.nic")
    second = tracer.wrap(lambda: clock.tick(4.0), "net.link")

    def parent():
        first()
        clock.tick(0.5)
        second()
        first()

    tracer.wrap(parent, "sim.engine")()
    assert self_time(tracer, "net.nic") == 2.0
    assert calls(tracer, "net.nic") == 2
    assert self_time(tracer, "net.link") == 4.0
    assert self_time(tracer, "sim.engine") == 0.5
    assert sum(tracer.self_s) == clock.t


def test_same_layer_nesting_does_not_double_count(tracer, clock):
    inner = tracer.wrap(lambda: clock.tick(2.0), "stm")
    outer = tracer.wrap(lambda: (clock.tick(1.0), inner()), "stm")
    outer()
    assert self_time(tracer, "stm") == 3.0
    assert calls(tracer, "stm") == 2


def test_exception_unwinds_every_open_span(tracer, clock):
    def failing():
        clock.tick(2.0)
        raise KeyError("boom")

    inner = tracer.wrap(failing, "stm")

    def outer_body():
        clock.tick(1.0)
        inner()

    outer = tracer.wrap(outer_body, "core.runtime")
    with pytest.raises(KeyError):
        outer()
    assert self_time(tracer, "stm") == 2.0
    assert self_time(tracer, "core.runtime") == 1.0
    # The stack is balanced again: a later span sees no stale children.
    tracer.wrap(lambda: clock.tick(5.0), "metrics")()
    assert self_time(tracer, "metrics") == 5.0


def test_return_value_and_arguments_pass_through(tracer):
    add = tracer.wrap(lambda a, b=0: a + b, "metrics")
    assert add(2, b=3) == 5


def test_bytes_boundary_averages_what_the_call_returns(tracer):
    from surface import Boundary
    size = tracer._wrapper_for(
        Boundary("m:Message.byte_size", "core.piggyback", "bytes"),
        lambda n: n * 2)
    assert [size(1), size(5)] == [2, 10]
    assert (tracer.bytes_sum, tracer.bytes_n) == (12, 2)
    assert calls(tracer, "core.piggyback") == 2


def _worker(clock, log):
    received = yield "first"
    clock.tick(1.0)
    log.append(received)
    try:
        yield "second"
    except ValueError as exc:
        clock.tick(2.0)
        log.append(f"caught {exc}")
    yield "third"
    return "done"


def test_generator_proxy_send_throw_close(tracer, clock):
    log = []
    proxy = tracer.proxy_generator(_worker(clock, log))
    assert hasattr(proxy, "throw") and proxy.__name__ == "_worker"
    assert proxy.send(None) == "first"
    assert proxy.send("hello") == "second"
    assert proxy.throw(ValueError("wound")) == "third"
    proxy.close()
    assert log == ["hello", "caught wound"]
    # Defined in this test module, which no layer owns: harness.
    assert calls(tracer, "harness") == 4
    assert self_time(tracer, "harness") == 3.0


def test_generator_proxy_propagates_return_value(tracer, clock):
    def short():
        yield 1
        return "result"

    proxy = tracer.proxy_generator(short())
    assert next(proxy) == 1
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "result"


def test_yield_from_through_a_proxied_generator(tracer, clock):
    def transaction():
        clock.tick(1.0)
        got = yield "lock"
        clock.tick(2.0)
        return f"committed {got}"

    traced_transaction = tracer.wrap_generator_function(transaction, "stm")

    def handle():
        clock.tick(0.5)
        result = yield from traced_transaction()
        clock.tick(0.25)
        return result

    process = tracer._proxy(handle(), LAYERS.index("core.replica"), "handle")
    assert process.send(None) == "lock"
    with pytest.raises(StopIteration) as stop:
        process.send("granted")
    assert stop.value.value == "committed granted"
    assert self_time(tracer, "stm") == 3.0
    assert calls(tracer, "stm") == 2
    assert self_time(tracer, "core.replica") == 0.75
    assert calls(tracer, "core.replica") == 2
    assert sum(tracer.self_s) == clock.t


def test_interrupt_thrown_through_yield_from_reaches_the_inner_generator(
        tracer, clock):
    seen = []

    def inner():
        try:
            yield "waiting"
        except RuntimeError as exc:
            seen.append(str(exc))
            clock.tick(1.0)
            return "aborted"

    traced_inner = tracer.wrap_generator_function(inner, "stm")

    def outer():
        return (yield from traced_inner())

    process = tracer._proxy(outer(), LAYERS.index("core.runtime"), "outer")
    assert next(process) == "waiting"
    with pytest.raises(StopIteration) as stop:
        process.throw(RuntimeError("interrupt"))
    assert stop.value.value == "aborted"
    assert seen == ["interrupt"]
    assert self_time(tracer, "stm") == 1.0


def test_full_records_carry_parent_and_packet_id(tracer, clock):
    class Packet:
        pid = 42

    inner = tracer.wrap(lambda: clock.tick(1.0), "stm", "inner")
    outer = tracer.wrap(lambda packet: inner(), "core.replica", "outer")
    tracer.rec = tracer.records
    outer(Packet())
    tracer.rec = None
    by_name = {record[3]: record for record in tracer.records}
    outer_id = by_name["outer"][0]
    assert by_name["inner"][1] == outer_id          # parent
    assert by_name["inner"][6] == 42                # inherited packet id
    assert by_name["outer"][6] == 42
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["outer", "inner"]
    # Aggregates are the same whichever path closed the span.
    assert self_time(tracer, "stm") == 1.0
    assert self_time(tracer, "core.replica") == 0.0
