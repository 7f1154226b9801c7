"""The slice of ``repro``'s public API this benchmark stands on.

Two lists, resolved once at start-up:

* :data:`WORKLOAD_SYMBOLS` -- every constructor and helper the
  workloads call.  A missing one aborts the run with its dotted name:
  the benchmark cannot build its inputs without it.
* :data:`BOUNDARIES` -- every public function the tracer wraps, with
  the layer its time belongs to.  A missing one is only a warning: the
  time it would have claimed falls to the calling layer and
  ``trace.boundaries_missing`` says so.  A later change that inlines
  ``PiggybackMessage.byte_size`` or removes a generator hop therefore
  does not break the benchmark it is forbidden to edit.

The harness deliberately stays off ``repro.perf``, ``repro.experiments``,
``repro.chaos.soak`` and ``repro.cli`` (ROADMAP items 3-4 rewrite
them) and reads no underscore-prefixed attribute of any ``repro``
object.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Dict, List, NamedTuple, Tuple

__all__ = ["LAYERS", "WORKLOAD_SYMBOLS", "BOUNDARIES", "Boundary",
           "MissingSymbol", "resolve", "resolve_workload_symbols",
           "resolve_boundaries", "layer_of_module"]

#: The package's modules, plus ``harness`` for the benchmark's own
#: ingress shim, egress oracle and digest (so their cost is never
#: booked to the layer that happens to call them).
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.resources",
    "net.flowgen", "net.nic", "net.link", "net.topology", "net.channel",
    "stm", "middlebox",
    "core.chain", "core.replica", "core.runtime", "core.forwarder",
    "core.piggyback", "core.depvec", "core.buffer", "core.recovery",
    "core.reconfig",
    "orchestration", "metrics", "harness",
)

#: Module prefix -> layer, longest prefix wins.  Generators handed to
#: ``Simulator.process`` and callables handed to
#: ``Simulator.schedule_callback`` are attributed through this table by
#: the module that *defines* them.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.resources", "sim.resources"),
    ("repro.sim", "sim.engine"),
    ("repro.net.flowgen", "net.flowgen"),
    ("repro.net.nic", "net.nic"),
    ("repro.net.link", "net.link"),
    ("repro.net.impairment", "net.link"),
    ("repro.net.channel", "net.channel"),
    ("repro.net", "net.topology"),
    ("repro.stm", "stm"),
    ("repro.middlebox", "middlebox"),
    ("repro.core.replica", "core.replica"),
    ("repro.core.runtime", "core.runtime"),
    ("repro.core.forwarder", "core.forwarder"),
    ("repro.core.piggyback", "core.piggyback"),
    ("repro.core.depvec", "core.depvec"),
    ("repro.core.buffer", "core.buffer"),
    ("repro.core.recovery", "core.recovery"),
    ("repro.core.reconfig", "core.reconfig"),
    ("repro.core.scaling", "core.reconfig"),
    ("repro.core", "core.chain"),
    ("repro.orchestration", "orchestration"),
    ("repro.metrics", "metrics"),
)

_module_layer_cache: Dict[str, str] = {}


def layer_of_module(module_name: str) -> str:
    """The layer that owns code defined in ``module_name``."""
    layer = _module_layer_cache.get(module_name)
    if layer is None:
        layer = "harness"
        best = -1
        for prefix, candidate in MODULE_LAYERS:
            if len(prefix) > best and (
                    module_name == prefix
                    or module_name.startswith(prefix + ".")):
                layer, best = candidate, len(prefix)
        _module_layer_cache[module_name] = layer
    return layer


#: ``module:attribute`` of everything the workloads construct or call.
WORKLOAD_SYMBOLS: Tuple[str, ...] = (
    "repro.sim:Simulator",
    "repro.sim:RandomStreams",
    "repro.core:FTCChain",
    "repro.core.reconfig:ReconfigOp",
    "repro.metrics:EgressRecorder",
    "repro.middlebox:ch_n",
    "repro.middlebox:ch_rec",
    "repro.middlebox:Monitor",
    "repro.middlebox:Gen",
    "repro.net:TrafficGenerator",
    "repro.net:balanced_flows",
    "repro.orchestration:OrchestratorEnsemble",
    "repro.orchestration:ElectionConfig",
    "repro.chaos.auditor:ShadowOracle",
    "repro.chaos.auditor:InvariantAuditor",
)


class Boundary(NamedTuple):
    """One public entry point the tracer wraps.

    ``kind`` selects the wrapper: ``call`` (plain callable), ``gen``
    (returns a generator: every resume is a span), ``bytes`` (``call``
    that also averages the integer it returns), or one of the three
    simulator hooks ``step`` / ``process`` / ``schedule``.
    """

    target: str   # "module:Class.method" or "module:function"
    layer: str
    kind: str = "call"


def _methods(owner: str, layer: str, *names: str,
             kind: str = "call") -> List[Boundary]:
    return [Boundary(f"{owner}.{name}", layer, kind) for name in names]


BOUNDARIES: Tuple[Boundary, ...] = tuple(
    [Boundary("repro.sim.engine:Simulator.step", "sim.engine", "step"),
     Boundary("repro.sim.engine:Simulator.process", "sim.engine", "process"),
     Boundary("repro.sim.engine:Simulator.schedule_callback", "sim.engine",
              "schedule")]
    + _methods("repro.sim.engine:Simulator", "sim.engine", "run", "timeout")
    + _methods("repro.sim.resources:Store", "sim.resources",
               "put", "get", "try_put", "try_get")
    + _methods("repro.sim.resources:RateLimiter", "sim.resources",
               "admission_delay", "admit")
    + _methods("repro.net.nic:NIC", "net.nic", "receive")
    + _methods("repro.net.link:Link", "net.link", "send")
    + _methods("repro.net.topology:Network", "net.topology",
               "send", "deliver_external")
    + _methods("repro.net.channel:ReliableChannel", "net.channel", "send")
    + _methods("repro.stm.transaction:TransactionManager", "stm", "run",
               kind="gen")
    + _methods("repro.core.runtime:MiddleboxRuntime", "core.runtime",
               "process", kind="gen")
    + [Boundary(f"repro.middlebox.{module}:{cls}.process", "middlebox")
       for module, cls in (("monitor", "Monitor"), ("gen", "Gen"),
                           ("firewall", "Firewall"), ("nat", "SimpleNAT"))]
    + _methods("repro.core.chain:FTCChain", "core.chain",
               "ingress", "send_to_position")
    + _methods("repro.core.forwarder:Forwarder", "core.forwarder",
               "attach", "absorb_feedback")
    + _methods("repro.core.depvec:ReplicationState", "core.depvec",
               "offer", "record_local", "commit_vector", "absorb_commit")
    + _methods("repro.core.depvec:DependencyVector", "core.depvec", "stamp")
    + _methods("repro.core.piggyback:PiggybackMessage", "core.piggyback",
               "add_log", "take_logs", "logs_for", "set_commit")
    + [Boundary("repro.core.piggyback:PiggybackMessage.byte_size",
                "core.piggyback", "bytes")]
    + _methods("repro.core.buffer:Buffer", "core.buffer", "handle")
    + [Boundary("repro.core.recovery:recover_positions", "core.recovery",
                "gen"),
       Boundary("repro.core.reconfig:apply_reconfig", "core.reconfig",
                "gen"),
       Boundary("repro.metrics.meters:EgressRecorder.__call__", "metrics")]
)


class MissingSymbol(Exception):
    """A ``module:attribute`` path that no longer resolves."""


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, value)`` for a ``module:dotted`` path.

    ``owner`` is the module or class holding the attribute, which is
    what the tracer needs to swap it and put it back.
    """
    module_name, _, dotted = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        parts = dotted.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        value = getattr(owner, parts[-1])
    except (ImportError, AttributeError) as exc:
        raise MissingSymbol(target) from exc
    return owner, parts[-1], value


def resolve_workload_symbols() -> Dict[str, Any]:
    """Attribute name -> object for every workload symbol; aborts
    (``MissingSymbol`` naming the dotted path) on the first gap."""
    symbols = {}
    for target in WORKLOAD_SYMBOLS:
        _, name, value = resolve(target)
        symbols[name] = value
    return symbols


def resolve_boundaries() -> Tuple[List[Tuple[Boundary, Any, str, Any]],
                                  List[str]]:
    """``(found, missing)``: the boundaries present on this commit as
    ``(boundary, owner, attribute, value)``, and the targets that are
    gone (each also warned about on stderr)."""
    found, missing = [], []
    for boundary in BOUNDARIES:
        try:
            owner, name, value = resolve(boundary.target)
        except MissingSymbol:
            missing.append(boundary.target)
            print(f"ftcbench: warning: tracer boundary {boundary.target} is "
                  f"gone; its time falls to the calling layer",
                  file=sys.stderr)
            continue
        found.append((boundary, owner, name, value))
    return found, missing
