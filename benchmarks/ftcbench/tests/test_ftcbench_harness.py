"""The harness end to end: tracing changes nothing, wrappers come off,
a missing boundary only warns, and a seeded violation fails the run."""

import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run as ftcbench_run
import surface
from tracer import LayerTracer
from workloads import WORKLOADS, _gap_statistics, run_repeat

RUN_PY = pathlib.Path(ftcbench_run.__file__)
TINY_WINDOW = 2e-3


@pytest.fixture(scope="module")
def api():
    return SimpleNamespace(**surface.resolve_workload_symbols())


def _traced(workload, api, boundaries):
    tracer = LayerTracer()
    tracer.install(boundaries)
    try:
        return run_repeat(workload, api, 0, TINY_WINDOW, tracer), tracer
    finally:
        tracer.uninstall()


def test_tracing_leaves_every_simulated_outcome_identical(api):
    workload = WORKLOADS["steady-ch2"]
    plain = run_repeat(workload, api, 0, TINY_WINDOW)
    found, missing = surface.resolve_boundaries()
    assert missing == []
    traced, tracer = _traced(workload, api, found)
    assert plain["violations"] == traced["violations"] == []
    for key in ("offered", "released", "digest", "sim", "counters"):
        assert traced[key] == plain[key], key
    assert plain["released"] == plain["offered"] > 100
    # The spans tile the run: nothing is left unattributed.
    assert sum(tracer.self_s) == pytest.approx(traced["wall_s"], rel=0.02)
    assert tracer.steps > 10 * traced["released"]
    assert 0 < len(tracer.records)


def test_wrappers_are_fully_removed():
    import repro
    import repro.core.recovery
    found, _ = surface.resolve_boundaries()
    before = [(owner, name, owner.__dict__[name])
              for _, owner, name, _ in found]
    tracer = LayerTracer()
    tracer.install(found)
    assert all(owner.__dict__[name] is not original
               for owner, name, original in before)
    # A module that imported a wrapped function by name sees the wrapper.
    assert repro.recover_positions is repro.core.recovery.recover_positions
    assert repro.recover_positions.__wrapped__ is not None
    tracer.uninstall()
    for owner, name, original in before:
        assert owner.__dict__[name] is original, f"{owner}.{name}"
    assert repro.recover_positions is repro.core.recovery.recover_positions
    assert not hasattr(repro.recover_positions, "__wrapped__")


def test_absent_boundary_warns_and_the_traced_run_still_works(
        api, monkeypatch, capsys):
    gone = surface.Boundary(
        "repro.core.piggyback:PiggybackMessage.no_such_method",
        "core.piggyback")
    monkeypatch.setattr(surface, "BOUNDARIES", surface.BOUNDARIES + (gone,))
    found, missing = surface.resolve_boundaries()
    assert missing == [gone.target]
    assert "no_such_method" in capsys.readouterr().err
    traced, _ = _traced(WORKLOADS["steady-ch2"], api, found)
    assert traced["violations"] == []


def test_missing_workload_symbol_aborts_with_its_dotted_name(monkeypatch):
    monkeypatch.setattr(surface, "WORKLOAD_SYMBOLS",
                        surface.WORKLOAD_SYMBOLS + ("repro.sim:NoSuchThing",))
    with pytest.raises(surface.MissingSymbol, match="repro.sim:NoSuchThing"):
        surface.resolve_workload_symbols()


def test_harness_stays_off_the_modules_the_roadmap_rewrites():
    for target in surface.WORKLOAD_SYMBOLS + tuple(
            boundary.target for boundary in surface.BOUNDARIES):
        module = target.split(":")[0]
        for banned in ("repro.perf", "repro.experiments",
                       "repro.chaos.soak", "repro.cli"):
            assert not module.startswith(banned), target


def test_outage_is_the_long_gap_when_there_is_one():
    window = 1.0
    healthy = [i * 1e-3 for i in range(1, 1000)]
    stats = _gap_statistics(healthy, window)
    assert stats["outage"] == pytest.approx(1e-3)
    crashed = [t for t in healthy if not 0.300 < t < 0.350]
    stats = _gap_statistics(crashed, window)
    assert stats["outage"] == pytest.approx(0.051, abs=1e-3)
    assert stats["longest"] == stats["outage"]


def _smoke(*extra):
    return subprocess.run(
        [sys.executable, str(RUN_PY), "--smoke", "--workload", "steady-ch2",
         *extra], capture_output=True, text=True, timeout=120)


def test_smoke_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke.json"
    done = _smoke("--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: numbers not comparable" in done.stdout
    spec = json.loads(ftcbench_run.SPEC_FILE.read_text())
    result = json.loads(out.read_text())["sets"][0][0]
    assert ftcbench_run.check_emitted(result, spec) == []
    assert result["per_layer"]["trace.boundaries_missing"] == 0
    assert result["per_layer"]["net.channel.calls_per_pkt"] == 0


def test_seeded_violation_turns_correct_to_0_and_the_exit_code_non_zero():
    done = _smoke("--inject-fault", "dup-egress")
    assert done.returncode != 0
    assert "steady-ch2  correct  0" in done.stdout
    assert "duplicate releases" in done.stdout
    assert "host_pps" not in done.stdout  # no other metric is printed


def test_contract_line_of_an_incorrect_run_carries_no_metrics():
    result = {"correct": False, "attempted": 10, "failed": 1,
              "end_to_end": {"host_pps": 1.0}}
    line = json.loads(ftcbench_run.contract_line(result, "end_to_end", {}))
    assert line == {"correct": False, "attempted": 10, "failed": 1,
                    "metrics": {}}


def test_agreement_demands_exact_simulated_metrics():
    spec = json.loads(ftcbench_run.SPEC_FILE.read_text())

    def result(host_pps, p99, calls):
        return {"workload": "steady-ch2", "info": {"digest": "d"},
                "end_to_end": {"host_pps": host_pps,
                               "sim_latency_p99_us": p99},
                "per_layer": {"stm.calls_per_pkt": calls,
                              "stm.self_us_per_pkt": host_pps}}

    base = [result(4000.0, 45.0, 6.0)]
    assert ftcbench_run.agreement([base, [result(4100.0, 45.0, 6.0)]],
                                  spec) == []
    problems = ftcbench_run.agreement(
        [base, [result(3000.0, 45.1, 6.5)]], spec)
    assert len(problems) == 3
