"""The exact gate: equal counts pass, any moved count fails by name."""

import copy
import json
import pathlib

import pytest

from repro.perf import (
    compare_dirs,
    compare_reports,
    load_reports,
    render_markdown,
)

BASELINES = pathlib.Path(__file__).parents[2] / "benchmarks" / "baselines"

CONFIG = {"chain": "ch2", "f": 1, "duration_s": 0.01}


def _report(scenario, calls=None, results=None, config=None, seed=0):
    return {"schema_version": 3, "scenario": scenario,
            "env": {"seed": seed},
            "config": dict(CONFIG) if config is None else config,
            "results": ({"offered": 10, "released": 10, "events": 99}
                        if results is None else results),
            "stages": {stage: {"calls": n}
                       for stage, n in (calls or {}).items()}}


def _write(directory, reports):
    directory.mkdir(parents=True, exist_ok=True)
    for report in reports:
        path = directory / f"BENCH_{report['scenario']}.json"
        path.write_text(json.dumps(report))


class TestCompareReports:
    def test_missing_current_is_failure_status(self):
        row = compare_reports("s", _report("s"), None)
        assert row["status"] == "missing"

    def test_new_scenario_is_informational(self, tmp_path):
        row = compare_reports("s", None, _report("s"))
        assert row["status"] == "new"
        assert row["notes"] == ["no committed baseline; commit this report"]
        _write(tmp_path / "base", [_report("a")])
        _write(tmp_path / "cur", [_report("a"), _report("s")])
        assert compare_dirs(str(tmp_path / "base"),
                            str(tmp_path / "cur"))["failed"] is False

    def test_a_different_events_count_fails(self):
        cur = _report("s", results={"offered": 10, "released": 10,
                                    "events": 100})
        row = compare_reports("s", _report("s"), cur)
        assert row["status"] == "differ"
        assert row["notes"] == ["results.events 99 -> 100"]


class TestStageCallCounts:
    def test_equal_counts_pass(self):
        row = compare_reports(
            "s", _report("s", {"stm/commit": 5, "buffer/hold": 7}),
            _report("s", {"buffer/hold": 7, "stm/commit": 5}))
        assert (row["status"], row["notes"]) == ("identical", [])

    def test_a_moved_probe_fails_naming_stage_and_both_counts(self):
        base = _report("s", {"stm/commit": 5, "buffer/hold": 7})
        for moved in (6, 8):
            row = compare_reports("s", base, _report(
                "s", {"stm/commit": 5, "buffer/hold": moved}))
            assert row["status"] == "differ"
            assert row["notes"] == [f"buffer/hold calls 7 -> {moved}"]

    def test_a_stage_on_one_side_only_counts_as_zero(self):
        row = compare_reports("s", _report("s", {"stm/commit": 5}),
                              _report("s", {"stm/commit": 5,
                                            "channel/ack": 3}))
        assert row["notes"] == ["channel/ack calls 0 -> 3"]
        row = compare_reports("s", _report("s", {"stm/commit": 5}),
                              _report("s", {}))
        assert row["notes"] == ["stm/commit calls 5 -> 0"]

    def test_different_config_or_seed_fails_as_incomparable(self):
        for cur in (_report("s", config={**CONFIG, "duration_s": 0.03}),
                    _report("s", seed=1)):
            row = compare_reports("s", _report("s"), cur)
            assert row["status"] == "incomparable"

    def test_every_difference_is_named(self):
        cur = _report("s", {"stm/commit": 6},
                      results={"offered": 10, "released": 9, "events": 99})
        row = compare_reports("s", _report("s", {"stm/commit": 5}), cur)
        assert row["notes"] == ["results.released 10 -> 9",
                                "stm/commit calls 5 -> 6"]

    def test_a_count_mismatch_fails_the_directory_gate(self, tmp_path):
        _write(tmp_path / "base", [_report("s", {"stm/commit": 5})])
        _write(tmp_path / "cur", [_report("s", {"stm/commit": 6})])
        outcome = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cur"))
        assert outcome["failed"] is True
        text = render_markdown(outcome)
        assert "| s | ✗ differ | stm/commit calls 5 -> 6 |" in text

    def test_committed_baselines_compare_identical_to_themselves(self):
        outcome = compare_dirs(str(BASELINES), str(BASELINES))
        assert outcome["failed"] is False
        assert [row["status"] for row in outcome["rows"]] == \
            ["identical"] * 6
        assert "identical on 6 of 6 scenario(s)" in render_markdown(outcome)


def _bump_calls(delta):
    def mutate(current):
        current["lossy"]["stages"]["channel/ack"]["calls"] += delta
    return mutate


def _bump_events(current):
    current["baseline"]["results"]["events"] += 1


@pytest.mark.parametrize("mutate, scenario, status", [
    (_bump_calls(1), "lossy", "differ"),
    (_bump_calls(-1), "lossy", "differ"),
    (_bump_events, "baseline", "differ"),
    (lambda c: c["overload"]["env"].update(seed=1), "overload",
     "incomparable"),
    (lambda c: c["overload"]["config"].update(f=2), "overload",
     "incomparable"),
    (lambda c: c.pop("reliable-links"), "reliable-links", "missing"),
], ids=["calls+1", "calls-1", "events", "seed", "config", "deleted"])
def test_each_mutation_of_a_committed_baseline_fails(tmp_path, mutate,
                                                     scenario, status):
    current = copy.deepcopy(load_reports(str(BASELINES)))
    mutate(current)
    _write(tmp_path, current.values())
    outcome = compare_dirs(str(BASELINES), str(tmp_path))
    rows = {row["scenario"]: row for row in outcome["rows"]}
    assert outcome["failed"] is True
    assert rows[scenario]["status"] == status
    assert [r["scenario"] for r in outcome["rows"]
            if r["status"] != "identical"] == [scenario]


class TestCompareDirs:
    def test_injected_regression_fails_the_gate(self, tmp_path):
        _write(tmp_path / "base", [_report("a"), _report("b")])
        _write(tmp_path / "cur", [_report("a"), _report(
            "b", results={"offered": 10, "released": 8, "events": 99})])
        outcome = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cur"))
        assert outcome["failed"] is True
        by = {r["scenario"]: r["status"] for r in outcome["rows"]}
        assert by == {"a": "identical", "b": "differ"}

    def test_missing_scenario_fails_the_gate(self, tmp_path):
        _write(tmp_path / "base", [_report("a"), _report("b")])
        _write(tmp_path / "cur", [_report("a")])
        outcome = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cur"))
        assert outcome["failed"] is True

    def test_identical_dirs_pass(self, tmp_path):
        _write(tmp_path / "base", [_report("a")])
        _write(tmp_path / "cur", [_report("a")])
        assert compare_dirs(str(tmp_path / "base"),
                            str(tmp_path / "cur"))["failed"] is False

    def test_nonexistent_dir_loads_empty(self, tmp_path):
        assert load_reports(str(tmp_path / "nope")) == {}

    def test_filename_fallback_for_scenario_key(self, tmp_path):
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "BENCH_legacy.json").write_text(
            json.dumps({"results": {"events": 5}}))
        assert "legacy" in load_reports(str(directory))


class TestRenderMarkdown:
    def test_table_and_verdict(self):
        outcome = {"failed": True, "rows": [
            compare_reports("a", _report("a", {"stm/commit": 2}),
                            _report("a", {"stm/commit": 3}))]}
        text = render_markdown(outcome)
        assert "### Perf regression gate" in text
        assert "| a | ✗ differ | stm/commit calls 2 -> 3 |" in text
        assert "gate **FAILED**" in text

    def test_pass_verdict(self):
        outcome = {"failed": False, "rows": []}
        assert render_markdown(outcome).endswith("gate passed")
