"""Regression-gate math: tolerance edges, missing scenarios, rendering."""

import json
import pathlib

from repro.perf import (
    DEFAULT_TOLERANCE,
    compare_dirs,
    compare_reports,
    headline_pps,
    load_reports,
    render_markdown,
)


def _report(scenario, pps, stages=None, config=None, seed=0):
    report = {"schema_version": 2, "scenario": scenario,
              "results": {"sim_pps_per_wall_s": pps},
              "stages": stages or {}}
    if config is not None:
        report["config"] = config
        report["env"] = {"seed": seed}
    return report


class TestHeadline:
    def test_reads_dict_results(self):
        assert headline_pps(_report("baseline", 1234)) == 1234.0

    def test_list_results_are_not_gated(self):
        # A v1-shaped report (mode list under results, as the deleted
        # BENCH_throughput.json had) found in a directory is not gated.
        assert headline_pps({"results": [{"sim_pps_per_wall_s": 9}]}) == 0.0

    def test_absent_results(self):
        assert headline_pps({}) == 0.0


class TestCompareReports:
    def test_within_tolerance_is_ok(self):
        row = compare_reports("s", _report("s", 1000), _report("s", 900),
                              tolerance=0.15)
        assert row["status"] == "ok"
        assert row["ratio"] == 0.9

    def test_exactly_at_tolerance_edge_is_ok(self):
        # ratio == 1 - tolerance is NOT < the threshold: no failure.
        row = compare_reports("s", _report("s", 1000), _report("s", 850),
                              tolerance=0.15)
        assert row["status"] == "ok"

    def test_twenty_percent_regression_fails(self):
        row = compare_reports("s", _report("s", 1000), _report("s", 800),
                              tolerance=0.15)
        assert row["status"] == "regression"
        assert any("tolerance" in n for n in row["notes"])

    def test_improvement_beyond_tolerance(self):
        row = compare_reports("s", _report("s", 1000), _report("s", 1300),
                              tolerance=0.15)
        assert row["status"] == "improved"

    def test_zero_baseline_is_warning_not_failure(self):
        row = compare_reports("s", _report("s", 0), _report("s", 500))
        assert row["status"] == "warning"
        assert row["ratio"] is None

    def test_missing_current_is_failure_status(self):
        row = compare_reports("s", _report("s", 1000), None)
        assert row["status"] == "missing"

    def test_new_scenario_is_informational(self):
        row = compare_reports("s", None, _report("s", 1000))
        assert row["status"] == "new"

    def test_stage_deltas_annotate_but_do_not_gate(self):
        base = _report("s", 1000,
                       stages={"stm/commit": {"us_per_packet": 10.0}})
        cur = _report("s", 1000,
                      stages={"stm/commit": {"us_per_packet": 20.0}})
        row = compare_reports("s", base, cur, tolerance=0.15)
        assert row["status"] == "ok"
        assert any("stm/commit" in n for n in row["notes"])

    def test_small_stage_deltas_stay_quiet(self):
        base = _report("s", 1000,
                       stages={"stm/commit": {"us_per_packet": 10.0}})
        cur = _report("s", 1000,
                      stages={"stm/commit": {"us_per_packet": 11.0}})
        row = compare_reports("s", base, cur, tolerance=0.15)
        assert row["notes"] == []


class TestStageCallCounts:
    """Same run (config + seed) -> stage ``calls`` are gated exactly."""

    CONFIG = {"chain": "ch2", "f": 1, "duration_s": 0.01}

    def _pair(self, base_calls, cur_calls, cur_pps=1000, **cur_kwargs):
        cur_kwargs.setdefault("config", dict(self.CONFIG))
        base = _report("s", 1000, config=dict(self.CONFIG), stages={
            stage: {"calls": n} for stage, n in base_calls.items()})
        cur = _report("s", cur_pps, stages={
            stage: {"calls": n} for stage, n in cur_calls.items()},
            **cur_kwargs)
        return base, cur

    def test_equal_counts_pass(self):
        row = compare_reports("s", *self._pair(
            {"stm/commit": 5, "buffer/hold": 7},
            {"buffer/hold": 7, "stm/commit": 5}))
        assert (row["status"], row["calls"], row["notes"]) == (
            "ok", "identical", [])

    def test_a_moved_probe_fails_naming_stage_and_both_counts(self):
        row = compare_reports("s", *self._pair(
            {"stm/commit": 5, "buffer/hold": 7},
            {"stm/commit": 5, "buffer/hold": 8}), tolerance=0.6)
        assert row["status"] == "calls-differ"
        assert row["notes"] == ["buffer/hold calls 7 -> 8"]

    def test_a_stage_on_one_side_only_counts_as_zero(self):
        row = compare_reports("s", *self._pair(
            {"stm/commit": 5}, {"stm/commit": 5, "channel/ack": 3}))
        assert row["notes"] == ["channel/ack calls 0 -> 3"]
        row = compare_reports("s", *self._pair({"stm/commit": 5}, {}))
        assert row["notes"] == ["stm/commit calls 5 -> 0"]

    def test_different_config_or_seed_is_a_note_not_a_failure(self):
        for kwargs in (dict(config={**self.CONFIG, "duration_s": 0.03}),
                       dict(seed=1)):
            row = compare_reports("s", *self._pair(
                {"stm/commit": 5}, {"stm/commit": 9}, **kwargs))
            assert (row["status"], row["calls"]) == ("ok", None)
            assert row["notes"] == ["run configurations differ; stage "
                                    "call counts not compared"]

    def test_wall_clock_regression_keeps_its_status_and_both_notes(self):
        row = compare_reports("s", *self._pair(
            {"stm/commit": 5}, {"stm/commit": 6}, cur_pps=500),
            tolerance=0.15)
        assert row["status"] == "regression"
        assert row["notes"][0] == "stm/commit calls 5 -> 6"
        assert "tolerance" in row["notes"][1]

    def test_a_count_mismatch_fails_the_directory_gate(self, tmp_path):
        base, cur = self._pair({"stm/commit": 5}, {"stm/commit": 6})
        for name, report in (("base", base), ("cur", cur)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "BENCH_s.json").write_text(json.dumps(report))
        outcome = compare_dirs(str(tmp_path / "base"), str(tmp_path / "cur"),
                               tolerance=0.6)
        assert outcome["failed"] is True
        text = render_markdown(outcome)
        assert "same run): **differ** on s" in text
        assert "stm/commit calls 5 -> 6" in text

    def test_committed_baselines_compare_identical_to_themselves(self):
        baselines = str(pathlib.Path(__file__).parents[2]
                        / "benchmarks" / "baselines")
        outcome = compare_dirs(baselines, baselines)
        assert outcome["failed"] is False
        assert [row["calls"] for row in outcome["rows"]] == \
            ["identical"] * len(outcome["rows"])
        assert "same run): identical on 6 of 6 scenario(s)" in \
            render_markdown(outcome)


class TestCompareDirs:
    def _write(self, directory, reports):
        directory.mkdir(parents=True, exist_ok=True)
        for report in reports:
            path = directory / f"BENCH_{report['scenario']}.json"
            path.write_text(json.dumps(report))

    def test_injected_regression_fails_the_gate(self, tmp_path):
        self._write(tmp_path / "base", [_report("a", 1000),
                                        _report("b", 2000)])
        self._write(tmp_path / "cur", [_report("a", 1000),
                                       _report("b", 1500)])  # -25%
        outcome = compare_dirs(str(tmp_path / "base"),
                               str(tmp_path / "cur"),
                               tolerance=DEFAULT_TOLERANCE)
        assert outcome["failed"] is True
        by = {r["scenario"]: r["status"] for r in outcome["rows"]}
        assert by == {"a": "ok", "b": "regression"}

    def test_missing_scenario_fails_the_gate(self, tmp_path):
        self._write(tmp_path / "base", [_report("a", 1000),
                                        _report("b", 2000)])
        self._write(tmp_path / "cur", [_report("a", 1000)])
        outcome = compare_dirs(str(tmp_path / "base"),
                               str(tmp_path / "cur"))
        assert outcome["failed"] is True

    def test_identical_dirs_pass(self, tmp_path):
        self._write(tmp_path / "base", [_report("a", 1000)])
        self._write(tmp_path / "cur", [_report("a", 1000)])
        assert compare_dirs(str(tmp_path / "base"),
                            str(tmp_path / "cur"))["failed"] is False

    def test_nonexistent_dir_loads_empty(self, tmp_path):
        assert load_reports(str(tmp_path / "nope")) == {}

    def test_filename_fallback_for_scenario_key(self, tmp_path):
        directory = tmp_path / "d"
        directory.mkdir()
        (directory / "BENCH_legacy.json").write_text(
            json.dumps({"results": {"sim_pps_per_wall_s": 5}}))
        assert "legacy" in load_reports(str(directory))


class TestRenderMarkdown:
    def test_table_and_verdict(self, tmp_path):
        outcome = {"tolerance": 0.15, "failed": True, "rows": [
            compare_reports("a", _report("a", 1000), _report("a", 700))]}
        text = render_markdown(outcome)
        assert "### Perf regression gate" in text
        assert "| a |" in text
        assert "-30.0%" in text
        assert "gate **FAILED**" in text

    def test_pass_verdict(self):
        outcome = {"tolerance": 0.15, "failed": False, "rows": []}
        assert render_markdown(outcome).endswith("gate passed")
