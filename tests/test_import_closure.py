"""What an entry point imports is what it pays for: the import closure, gated.

Start-up is compile time here -- CI and the benchmark run without a
bytecode cache, so every ``repro.*`` module an entry point loads is
parsed and compiled from source (``BENCHMARK.json``'s ``setup_s``).
Package ``__init__``s are lazy tables (:mod:`repro._lazy`) and the
disabled-instrumentation singletons live in one leaf
(:mod:`repro.telemetry.null`); these tests keep it that way by running
each entry point in a fresh interpreter and reading ``sys.modules``.
The budgets count modules and source lines, never milliseconds, so
they hold on any machine, with or without ``__pycache__``.

``python tests/test_import_closure.py`` prints the start-up table
(entry point -> modules, lines, import ms) as markdown; CI appends it
to the step summary.  ``python -X importtime -c "<entry point>"`` gives
the per-module breakdown when a budget trips.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SURFACE = ROOT / "benchmarks" / "ftcbench" / "surface.py"

#: Runs ``{code}`` and prints, as the last line of stdout, the
#: ``repro.*`` modules it left in ``sys.modules``.  ``{code}`` may bind
#: ``first = loaded()`` part-way; ``late`` is what arrived after that.
_PROBE = """
import json, sys, time
def loaded():
    return {{m for m in sys.modules if m == "repro" or m.startswith("repro.")}}
first = None
t0 = time.perf_counter()
{code}
ms = (time.perf_counter() - t0) * 1e3
modules = sorted(loaded())
lines = sum(len(open(sys.modules[m].__file__, encoding="utf-8").readlines())
            for m in modules)
late = sorted(loaded() - first) if first is not None else None
print(json.dumps({{"modules": modules, "lines": lines, "ms": ms, "late": late}}))
"""

#: The benchmark's own symbol list, read from its file: the harness
#: resolves all fifteen before it builds any workload.
WORKLOAD_SYMBOLS = f"""
import importlib.util
spec = importlib.util.spec_from_file_location("surface", {str(SURFACE)!r})
surface = importlib.util.module_from_spec(spec)
spec.loader.exec_module(surface)
api = surface.resolve_workload_symbols()
"""

BARE_CHAIN = """
from repro.core import FTCChain
from repro.metrics import EgressRecorder
from repro.middlebox import ch_n
from repro.net import TrafficGenerator
from repro.sim import Simulator
"""

#: Telemetry-off Ch-2: what ``steady-ch2`` runs, at a tenth the size.
CH2_RUN = BARE_CHAIN + """
from repro.net import balanced_flows
sim = Simulator()
egress = EgressRecorder(sim)
chain = FTCChain(sim, ch_n(2, n_threads=2), f=1, deliver=egress, n_threads=2)
chain.start()
TrafficGenerator(sim, chain.ingress, rate_pps=2e5,
                 flows=balanced_flows(16, 2), count=200)
sim.run(until=1e-3)
first = loaded()
sim.run(until=5e-3)
assert chain.total_released() == 200
"""

#: ``failover-ch3``'s shape: Ch-Rec under a three-member ensemble, a
#: crash at 30 % and a live rescale at 70 % of the window.  Everything
#: is resolved up front, as the harness does, then nothing may load.
FAILOVER_RUN = WORKLOAD_SYMBOLS + """
from types import SimpleNamespace
api = SimpleNamespace(**api)
sim = api.Simulator()
oracle = api.ShadowOracle(inner=api.EgressRecorder(sim), track_order=True)
chain = api.FTCChain(sim, api.ch_rec(n_threads=2), f=1, deliver=oracle,
                     n_threads=2, seed=3, reliable_links=True)
chain.start()
ensemble = api.OrchestratorEnsemble(
    sim, chain, n=3, election=api.ElectionConfig(
        lease_s=6e-3, renew_every_s=2e-3, candidacy_base_s=2e-3))
ensemble.start()
auditor = api.InvariantAuditor(chain, oracle, orchestrator=ensemble)
rescale = api.ReconfigOp(kind="rescale", position=2, n_threads=4)
window = 60e-3
sim.schedule_callback(0.3 * window, lambda: chain.fail_position(1))
sim.schedule_callback(0.7 * window, lambda: ensemble.request_reconfig(rescale))
generator = api.TrafficGenerator(
    sim, chain.ingress, rate_pps=2e4, flows=api.balanced_flows(16, 2),
    packet_size=256, arrivals="poisson", streams=api.RandomStreams(3))
sim.run(until=1e-3)
first = loaded()
sim.run(until=window)
generator.stop()
sim.run(until=window + 30e-3)
ensemble.stop()
assert [event.recovered for event in ensemble.history] == [True]
assert len(ensemble.reconfig_history) == 1
assert auditor.audit(quiescent=True) == []
"""


def _cli(*argv: str) -> str:
    return ("from repro.cli import main\n"
            f"try:\n    main({list(argv)!r})\nexcept SystemExit:\n    pass\n")


#: The rows of the start-up table.
ENTRY_POINTS = {
    "`from repro.sim import Simulator`": "from repro.sim import Simulator",
    "ftcbench `WORKLOAD_SYMBOLS` (`setup_s`)": WORKLOAD_SYMBOLS,
    "`FTCChain` + `Simulator` + `ch_n` + generator + recorder": BARE_CHAIN,
    "`python -m repro --help`": _cli("--help"),
}


def closure(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its ``repro.*`` closure."""
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code)], env=environ,
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


def _under(prefixes, modules):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_importing_the_simulator_loads_the_simulator():
    assert closure("from repro.sim import Simulator")["modules"] == [
        "repro", "repro._lazy", "repro.sim", "repro.sim.engine"]


#: Nothing the benchmark's fifteen symbols need lives in these.
OFF_THE_BENCHMARK_PATH = (
    [f"repro.chaos.{m}" for m in ("soak", "scenario", "plan", "monkey")]
    + [f"repro.flight.{m}" for m in ("explain", "report", "slo")]
    + [f"repro.perf.{m}" for m in ("scenarios", "cli")]
    + [f"repro.orchestration.{m}" for m in ("brownout", "cloud", "placement")]
    + ["repro.experiments", "repro.baselines", "repro.cli"])

#: The enabled instrumentation: never loaded while it is switched off.
ENABLED_INSTRUMENTATION = (
    "repro.telemetry.registry", "repro.telemetry.trace",
    "repro.telemetry.timeline", "repro.telemetry.bundle",
    "repro.flight.recorder", "repro.perf.profiler")


def test_the_benchmarks_symbols_stay_inside_their_budget():
    got = closure(WORKLOAD_SYMBOLS)
    assert len(got["modules"]) <= 55, got["modules"]
    assert got["lines"] <= 11_000, got["lines"]
    assert _under(OFF_THE_BENCHMARK_PATH, got["modules"]) == []
    assert _under(ENABLED_INSTRUMENTATION, got["modules"]) == []


def test_a_bare_chain_stays_inside_its_budget():
    got = closure(BARE_CHAIN)
    assert len(got["modules"]) <= 46, got["modules"]
    assert _under(OFF_THE_BENCHMARK_PATH + ["repro.chaos"],
                  got["modules"]) == []


def test_a_telemetry_off_run_never_loads_the_enabled_instrumentation():
    got = closure(CH2_RUN)
    assert _under(ENABLED_INSTRUMENTATION, got["modules"]) == []
    assert "repro.telemetry.null" in got["modules"]
    assert got["late"] == []


def test_nothing_is_first_imported_inside_a_failover_run():
    """A module first imported inside ``sim.run`` would be compiled
    inside one of the benchmark's timed repeats."""
    got = closure(FAILOVER_RUN)
    assert got["late"] == []
    assert _under(OFF_THE_BENCHMARK_PATH, got["modules"]) == []
    assert _under(ENABLED_INSTRUMENTATION, got["modules"]) == []


def test_commands_that_need_no_simulator_do_not_compile_it(tmp_path):
    dump = tmp_path / "flight.json"
    dump.write_text(json.dumps({"version": 1, "events": [], "trips": []}))
    for argv in (("--help",), ("report", "--help"),
                 ("explain", str(dump), "--epoch", "1"),
                 ("perf", "profile", "--help")):
        got = closure(_cli(*argv))
        assert "repro.cli" in got["modules"]
        assert _under(["repro.sim", "repro.stm", "repro.net", "repro.core"],
                      got["modules"]) == [], argv


def main() -> None:
    print("### Start-up: what each entry point imports\n")
    print("| entry point | `repro.*` modules | source lines | import ms |")
    print("|---|---:|---:|---:|")
    for name, code in ENTRY_POINTS.items():
        got = closure(code)
        print(f"| {name} | {len(got['modules'])} | {got['lines']:,} "
              f"| {got['ms']:.0f} |")


if __name__ == "__main__":
    main()
