"""Outside-in layer tracer: spans around calls into each layer.

Installed at run time from the benchmark's own files and removed
afterwards; nothing under ``src/`` is edited.  Three mechanisms:

1. ``Simulator.run`` / ``Simulator.step`` are the root spans, so the
   ``sim.engine`` self time is the pure event kernel.
2. Every generator handed to ``Simulator.process`` is proxied by an
   object implementing ``send``/``throw``/``close`` that opens a span
   per resume, and every callable handed to
   ``Simulator.schedule_callback`` is wrapped likewise -- both
   attributed to a layer by the module that defines them.
3. The fixed table of public entry points in :mod:`surface`;
   generator-valued ones go through the same proxy.

A span's *self time* is its duration minus the part its child spans
cover, so the per-layer self times tile the traced wall time.  The
Python call stack *is* the span stack: a wrapper saves the parent's
child-time accumulator in a local, zeroes it, runs the call, and on
the way out books ``duration - children`` to its layer and hands
``duration`` to the parent.  Exceptions unwind through ``finally``.

Spans aggregate as they close.  Full span records (layer, name,
start, end, parent, packet id) are kept only while
:meth:`LayerTracer.record_steps` has engine steps left, and are
exported as Chrome-trace JSON.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from surface import LAYERS, layer_of_module

__all__ = ["LayerTracer"]

_LAYER_INDEX = {layer: index for index, layer in enumerate(LAYERS)}


class LayerTracer:
    """Per-layer exclusive self time and span counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        #: Time covered by already-closed children of the open span.
        self.child = 0.0
        #: ``Simulator.step`` calls seen.
        self.steps = 0
        #: Sum and count of the integers a ``bytes`` boundary returned.
        self.bytes_sum = 0
        self.bytes_n = 0
        #: Span records while recording, else ``None`` (the fast path
        #: tests exactly this).
        self.rec: Optional[List[tuple]] = None
        self.records: List[tuple] = []
        self._rec_steps_left = 0
        self._cur_id = 0
        self._cur_pid: Optional[int] = None
        self._next_id = 1
        self._installed: List[Tuple[Any, str, Any]] = []
        self._proxy = _make_proxy_class(self)

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             name: Optional[str] = None) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        tr = self
        index = _LAYER_INDEX[layer]
        label = name or getattr(fn, "__qualname__", repr(fn))
        clock, self_s, calls = self.clock, self.self_s, self.calls

        def span_call(*args, **kwargs):
            if tr.rec is not None:
                return tr._recorded(fn, index, label, args, kwargs)
            outer = tr.child
            tr.child = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self_s[index] += duration - tr.child
                calls[index] += 1
                tr.child = outer + duration

        span_call.__wrapped__ = fn
        span_call.__name__ = getattr(fn, "__name__", "span_call")
        return span_call

    def wrap_generator_function(self, fn: Callable, layer: str) -> Callable:
        """``fn`` whose returned generator opens a span per resume."""
        proxy = self._proxy
        index = _LAYER_INDEX[layer]
        label = getattr(fn, "__qualname__", repr(fn))

        def make_generator(*args, **kwargs):
            return proxy(fn(*args, **kwargs), index, label)

        make_generator.__wrapped__ = fn
        make_generator.__name__ = getattr(fn, "__name__", "make_generator")
        return make_generator

    def proxy_generator(self, generator: Any) -> Any:
        """A span-per-resume proxy, layered by the defining module."""
        if isinstance(generator, self._proxy) or \
                getattr(generator, "gi_frame", None) is None:
            return generator
        module = generator.gi_frame.f_globals.get("__name__") or ""
        return self._proxy(generator, _LAYER_INDEX[layer_of_module(module)],
                           getattr(generator, "__qualname__", "generator"))

    def wrap_callback(self, callback: Callable) -> Callable:
        """A scheduled callable, layered by the defining module."""
        module = getattr(callback, "__module__", None) or ""
        return self.wrap(callback, layer_of_module(module))

    def reset(self) -> None:
        """Forget the spans closed so far (set-up work before the timed
        region), so that totals tile exactly the region that follows."""
        self.self_s[:] = [0.0] * len(LAYERS)
        self.calls[:] = [0] * len(LAYERS)
        self.steps = self.bytes_sum = self.bytes_n = 0

    # -- the slow path: full span records -----------------------------------------

    def record_steps(self, n_steps: int) -> None:
        """Keep full span records for the next ``n_steps`` engine steps."""
        self._rec_steps_left = n_steps

    def _recorded(self, fn, index, label, args, kwargs):
        """The general span: aggregates like the fast paths and, while
        recording, keeps the full record."""
        span_id = self._next_id
        self._next_id += 1
        parent, parent_pid = self._cur_id, self._cur_pid
        pid = parent_pid
        for arg in args:
            found = getattr(arg, "pid", None)
            if isinstance(found, int):
                pid = found
                break
        self._cur_id, self._cur_pid = span_id, pid
        outer = self.child
        self.child = 0.0
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            duration = t1 - t0
            self.self_s[index] += duration - self.child
            self.calls[index] += 1
            self.child = outer + duration
            self._cur_id, self._cur_pid = parent, parent_pid
            if self.rec is not None:
                self.rec.append((span_id, parent, LAYERS[index], label,
                                 t0, t1, pid))

    # -- installation ---------------------------------------------------------------

    def install(self, boundaries) -> None:
        """Swap in a wrapper for every ``(boundary, owner, name, value)``.

        Module-level functions are also swapped in every loaded
        ``repro`` module that imported them by name.
        """
        for boundary, owner, name, value in boundaries:
            if name not in owner.__dict__:
                # Inherited: wrapping it here would shadow the base's
                # attribute; leave its time with the calling layer.
                continue
            raw = owner.__dict__[name]
            wrapper = self._wrapper_for(boundary, raw)
            owners = [owner]
            if not isinstance(owner, type):
                owners += [module for mod_name, module
                           in list(sys.modules.items())
                           if mod_name.startswith("repro")
                           and module is not owner
                           and getattr(module, name, None) is raw]
            for holder in owners:
                self._installed.append((holder, name, raw))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back (same objects, by identity)."""
        while self._installed:
            holder, name, raw = self._installed.pop()
            setattr(holder, name, raw)

    def _wrapper_for(self, boundary, raw: Callable) -> Callable:
        tr = self
        kind, layer = boundary.kind, boundary.layer
        if kind == "call":
            return self.wrap(raw, layer)
        if kind == "bytes":
            def sized(*args, **kwargs):
                size = raw(*args, **kwargs)
                tr.bytes_sum += size
                tr.bytes_n += 1
                return size
            return self.wrap(sized, layer, raw.__qualname__)
        if kind == "gen":
            return self.wrap_generator_function(raw, layer)
        spanned = self.wrap(raw, layer)
        if kind == "process":
            def process(sim, generator, name=None):
                return spanned(sim, tr.proxy_generator(generator), name=name)
            return process
        if kind == "schedule":
            def schedule_callback(sim, delay, callback):
                return spanned(sim, delay, tr.wrap_callback(callback))
            return schedule_callback
        if kind == "step":
            def step(sim):
                tr.steps += 1
                if tr._rec_steps_left:
                    tr._rec_steps_left -= 1
                    tr.rec = tr.records
                    try:
                        return spanned(sim)
                    finally:
                        tr.rec = None
                return spanned(sim)
            return step
        raise ValueError(f"unknown boundary kind {kind!r}")

    # -- results ----------------------------------------------------------------------

    def span_cost_us(self, n: int = 100_000) -> float:
        """Wall cost of one span around an empty call, in microseconds,
        so a reader can discount ``calls x span_cost`` from a chatty
        layer.  Measured on a scratch tracer: no totals move."""
        scratch = LayerTracer(self.clock)
        empty = scratch.wrap(lambda: None, "harness")
        bare = (lambda: None)
        t0 = time.perf_counter()
        for _ in range(n):
            empty()
        t1 = time.perf_counter()
        for _ in range(n):
            bare()
        t2 = time.perf_counter()
        return ((t1 - t0) - (t2 - t1)) / n * 1e6

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as Chrome-trace ``X`` events (one track:
        the simulator is single-threaded, so nesting is by time)."""
        if not self.records:
            return {"traceEvents": []}
        origin = min(record[4] for record in self.records)
        events = [{
            "name": label, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"id": span_id, "parent": parent, "packet": pid},
        } for span_id, parent, layer, label, t0, t1, pid in self.records]
        events.sort(key=lambda event: (event["ts"], -event["dur"],
                                       event["args"]["id"]))
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def _make_proxy_class(tr: LayerTracer):
    """The generator proxy, closed over one tracer's accumulators."""
    clock, self_s, calls = tr.clock, tr.self_s, tr.calls

    class GeneratorSpan:
        """Stands in for a generator; every resume is a span.

        Implements the full generator protocol the engine and
        ``yield from`` use: ``send``, ``throw``, ``close``, iteration.
        ``StopIteration`` (carrying the return value) and every other
        exception pass through untouched.
        """

        __slots__ = ("_gen", "_index", "_label", "__name__")

        def __init__(self, generator, index: int, label: str):
            self._gen = generator
            self._index = index
            self._label = label
            self.__name__ = getattr(generator, "__name__", "generator")

        def send(self, value):
            if tr.rec is not None:
                return tr._recorded(self._gen.send, self._index,
                                    self._label, (value,), {})
            index = self._index
            outer = tr.child
            tr.child = 0.0
            t0 = clock()
            try:
                return self._gen.send(value)
            finally:
                duration = clock() - t0
                self_s[index] += duration - tr.child
                calls[index] += 1
                tr.child = outer + duration

        def __next__(self):
            return self.send(None)

        def __iter__(self):
            return self

        # Rare resumes take the general span; only ``send`` is hot.
        def throw(self, *exc_info):
            return tr._recorded(self._gen.throw, self._index, self._label,
                                exc_info, {})

        def close(self):
            return tr._recorded(self._gen.close, self._index, self._label,
                                (), {})

    return GeneratorSpan
