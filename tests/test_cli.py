"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_middleboxes_and_systems(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for expected in ("mazunat", "monitor", "ids", "policer",
                         "ftc", "ftmb", "fig9"):
            assert expected in out


class TestRun:
    def test_run_ftc_chain(self, capsys):
        code = main(["run", "--chain", "monitor,monitor", "--system", "ftc",
                     "--rate", "5e5", "--duration", "0.004",
                     "--threads", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FTC chain" in out
        assert "throughput" in out
        assert "monitor0 -> monitor1" in out

    def test_run_nf_chain(self, capsys):
        assert main(["run", "--chain", "firewall", "--system", "nf",
                     "--rate", "5e5", "--duration", "0.003",
                     "--threads", "2"]) == 0
        assert "NF chain" in capsys.readouterr().out

    def test_run_with_failure_injection(self, capsys):
        code = main(["run", "--chain", "monitor,monitor", "--system", "ftc",
                     "--rate", "5e5", "--duration", "0.008",
                     "--threads", "2", "--fail-at", "0.002",
                     "--fail-position", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered position 1" in out

    def test_fail_at_requires_ftc(self, capsys):
        code = main(["run", "--chain", "monitor", "--system", "nf",
                     "--rate", "5e5", "--duration", "0.002",
                     "--threads", "2", "--fail-at", "0.001"])
        assert code == 2

    def test_unknown_middlebox_kind(self):
        with pytest.raises(ValueError):
            main(["run", "--chain", "nonexistent", "--system", "ftc",
                  "--duration", "0.001"])


class TestChaos:
    def test_short_soak_exits_zero(self, capsys):
        code = main(["chaos", "--seed", "3", "--schedules", "2",
                     "--faults", "2", "--lengths", "2,3",
                     "--f-values", "1", "--duration", "0.03", "-v"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos soak: 2 schedules" in out
        assert "0 invariant violations" in out
        assert "schedule   0" in out  # verbose per-schedule lines


class TestExperiment:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_runs_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Packet processing" in out


class TestPerf:
    def test_bench_single_scenario(self, capsys, tmp_path):
        code = main(["perf", "bench", "--scenario", "baseline", "--quick",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "offered 2000, released 2000, events " in out
        report = json.loads((tmp_path / "BENCH_baseline.json").read_text())
        assert report["schema_version"] == 3
        assert report["stages"]

    def test_compare_gate_exit_codes(self, capsys, tmp_path):
        base, cur = tmp_path / "base", tmp_path / "cur"
        for d in (base, cur):
            d.mkdir()
        report = {"scenario": "s", "results": {"events": 1000}}
        (base / "BENCH_s.json").write_text(json.dumps(report))
        (cur / "BENCH_s.json").write_text(json.dumps(report))
        assert main(["perf", "compare", "--baseline-dir", str(base),
                     "--current-dir", str(cur)]) == 0
        assert "gate passed" in capsys.readouterr().out
        # One more scheduled event: must exit nonzero.
        report["results"]["events"] = 1001
        (cur / "BENCH_s.json").write_text(json.dumps(report))
        assert main(["perf", "compare", "--baseline-dir", str(base),
                     "--current-dir", str(cur)]) == 1
        assert "gate **FAILED**" in capsys.readouterr().out

    def test_compare_writes_markdown(self, capsys, tmp_path):
        summary = tmp_path / "summary.md"
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        assert main(["perf", "compare", "--baseline-dir",
                     str(tmp_path / "base"), "--current-dir",
                     str(tmp_path / "cur"), "--markdown",
                     str(summary)]) == 0
        assert "Perf regression gate" in summary.read_text()

    def test_profile_writes_artifacts(self, capsys, tmp_path):
        prefix = str(tmp_path / "prof")
        code = main(["perf", "profile", "baseline", "--quick",
                     "--out-prefix", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "counter samples" in out
        assert "engine/dispatch" in out
        trace = json.loads((tmp_path / "prof.trace.json").read_text())
        from repro.telemetry.trace import validate_chrome_trace
        assert validate_chrome_trace(trace) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "prof.trace.json"]
