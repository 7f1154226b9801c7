"""One seam: every instrumented moment is one ``Telemetry.emit``.

:data:`repro.telemetry.bundle.EVENTS` declares every event and the
sinks it feeds.  These tests read the source of every module outside
the sinks themselves (``telemetry/``, ``flight/recorder.py``,
``perf/``): every event a module emits is a row of the table, every
row is emitted somewhere, no module writes a sink directly, every
data-path emit sits behind a ``telemetry.enabled`` test, and the perf
stage taxonomy is the table's stage column.
"""

from __future__ import annotations

import ast
import pathlib
import re

from repro.perf import STAGES
from repro.telemetry.bundle import EVENTS, Telemetry

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every module but the sinks and the profiler, relative to ``SRC``.
INSTRUMENTED_FILES = tuple(sorted(
    path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
    if path.parent.name not in ("telemetry", "perf")
    and path.relative_to(SRC).as_posix() != "flight/recorder.py"))

DATA_PATH_FILES = (
    "core/buffer.py", "core/replica.py", "core/runtime.py",
    "core/forwarder.py", "core/chain.py", "core/admission.py",
    "core/depvec.py", "stm/transaction.py", "stm/locks.py",
    "net/channel.py", "net/nic.py", "net/link.py", "net/topology.py")

#: A direct write to a sink, or a cached sink, bypassing the table.
DIRECT_SINK = re.compile(
    r"flight\.record\(|tracer\.(complete|instant|begin_async|end_async"
    r"|wants)\(|prof\.count\(|\.observe\(|\b_flight\b|_m_[a-z]")


def _guarded(test: ast.expr) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "enabled"
               for node in ast.walk(test))


def _emits(relative: str):
    """``(component, kind, guarded, line)`` for every emit in one file.

    The network's drop sites emit ``("net", site)`` from
    ``_count_drop(site, ...)``; each call names its site.
    """
    tree = ast.parse((SRC / relative).read_text())
    found = []

    def visit(node, guarded):
        if isinstance(node, ast.If):
            visit(node.test, guarded)
            for child in node.body:
                visit(child, guarded or _guarded(node.test))
            for child in node.orelse:
                visit(child, guarded)
            return
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            literal = [arg.value for arg in node.args[:2]
                       if isinstance(arg, ast.Constant)]
            if name == "emit":
                found.append((*literal, guarded, node.lineno))
            elif name == "_count_drop":
                found.append(("net", literal[0], True, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return found


def _all_emits(files=INSTRUMENTED_FILES):
    return [(relative, *emit) for relative in files
            for emit in _emits(relative)]


def test_every_emitted_event_is_routed():
    unrouted = [emit for emit in _all_emits()
                if len(emit) == 5 and tuple(emit[1:3]) not in EVENTS]
    assert unrouted == []


def test_every_route_is_emitted():
    """A row is emitted by name, or by a site that computes the kind of
    its component (a journal step, a brownout kind, a recovery or
    reconfiguration phase)."""
    emits = _all_emits()
    emitted = {tuple(emit[1:3]) for emit in emits if len(emit) == 5}
    # ``_count_drop(site, ...)`` names each ``net`` site, so those rows
    # stay checked one by one.
    computed = {emit[1] for emit in emits if len(emit) == 4} - {"net"}
    assert computed == {"journal", "brownout", "recovery", "reconfig"}
    assert sorted(key for key in set(EVENTS) - emitted
                  if key[0] not in computed) == []


def test_every_emit_sits_behind_the_enabled_test():
    # ``_count_drop``'s own emit names its site through a parameter;
    # the helper's body is checked like any other site.  Control-plane
    # events are rare, so only the data path guards its calls.
    unguarded = [emit for emit in _all_emits(DATA_PATH_FILES)
                 if not emit[-2]]
    assert unguarded == []


def test_no_data_path_file_writes_a_sink_directly():
    assert set(DATA_PATH_FILES) < set(INSTRUMENTED_FILES)
    direct = [f"{relative}:{number}"
              for relative in INSTRUMENTED_FILES
              for number, line in enumerate(
                  (SRC / relative).read_text().splitlines(), 1)
              if DIRECT_SINK.search(line)]
    assert direct == []


def test_the_stage_taxonomy_is_the_tables_stage_column():
    column = [route.stage for route in EVENTS.values() if route.stage]
    assert STAGES == ("engine/dispatch", *column)
    assert len(set(STAGES)) == len(STAGES)


def test_a_route_without_a_live_sink_calls_nothing():
    class Refusing:
        enabled = False

        def __getattr__(self, name):
            raise AssertionError(f"a disabled sink was asked for {name}")

    telemetry = Telemetry(max_trace_events=0, flight=Refusing(),
                          profiler=Refusing())
    telemetry.emit("stm", "commit", t=1e-3, pid=7, name="stm/m",
                   start=0.0, tid=0, partitions={3}, retries=0, htm=False)
    assert telemetry.tracer.events == []
