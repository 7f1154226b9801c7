"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.middlebox import available, create

#: The function column of ``repro run``'s middlebox table, per kind.
DESCRIBED = {
    "firewall": "Firewall: stateless, 0 rules",
    "gen": "Gen: write per packet, state size 64 B",
    "ids": "PortCountIDS: shared counters on [22, 23, 3389], alert at 1000",
    "loadbalancer": "LoadBalancer: sticky flows over 2 backends",
    "mazunat": "MazuNAT: reads per packet, writes per flow (shared table)",
    "monitor": "Monitor: read+write per packet, sharing level 1/8 threads",
    "policer": "TokenBucketPolicer: per-flow 10000 pps, burst 100",
    "simplenat": "SimpleNAT: reads per packet, writes per flow",
    "stateful-firewall": "StatefulFirewall: per-flow connection tracking, "
                         "30.0s idle timeout",
}


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

    def test_impair_data_is_echoed_once(self, capsys):
        assert main(["run", "--rate", "1e5", "--duration", "0.002",
                     "--threads", "2", "--impair-data", "drop=0.02"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("data impairment: drop=0.02") == 1
        assert sum(line.startswith("  links: ") for line in lines) == 1

    def test_fail_at_requires_ftc(self, capsys):
        code = main(["run", "--chain", "monitor", "--system", "nf",
                     "--rate", "5e5", "--duration", "0.002",
                     "--threads", "2", "--fail-at", "0.001"])
        assert code == 2

    @pytest.mark.parametrize("kind", available())
    def test_function_column_is_describe(self, kind, capsys):
        assert main(["run", "--chain", kind, "--rate", "1e5",
                     "--duration", "0.001", "--threads", "2"]) == 0
        (row,) = [re.split(r"\s{2,}", line.strip())
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith(f"{kind}0 ")]
        assert row[1] == create(kind).describe() == DESCRIBED[kind]

    @pytest.mark.parametrize("system", ["bogus", "remote-store"])
    def test_unknown_system_is_a_usage_error(self, system, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--system", system, "--duration", "0.001"])
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_system_is_case_insensitive(self, capsys):
        assert main(["run", "--system", "NF", "--rate", "1e5",
                     "--duration", "0.001", "--threads", "2"]) == 0
        assert "NF chain" in capsys.readouterr().out

    def test_unknown_middlebox_kind(self, capsys):
        assert main(["run", "--chain", "nonexistent", "--system", "ftc",
                     "--duration", "0.001"]) == 2
        assert ("repro run: unknown middlebox kind 'nonexistent'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "trace", "report"])
    @pytest.mark.parametrize("flags,message", [
        (["--chain", "monitor,bogus"], "unknown middlebox kind 'bogus'"),
        (["--threads", "0"], "threads and flows must be >= 1"),
        (["--flows", "0"], "threads and flows must be >= 1"),
        (["--rate", "0"], "rate must be > 0"),
        (["--fail-at", "0.005", "--fail-position", "7"],
         "the chain has positions 0..1"),
        (["--fail-at", "0.005", "--fail-position", "-1"],
         "the chain has positions 0..1")],
        ids=["kind", "threads", "flows", "rate", "position-7",
             "position-minus-1"])
    def test_bad_flags_are_usage_errors(self, command, flags, message,
                                        capsys, tmp_path):
        """Exit 2 and one line, not a traceback with the exit code of a
        violated invariant."""
        out = ["--out", str(tmp_path / "out")] if command != "run" else []
        assert main([command, "--duration", "0.001", *flags, *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: ") and message in err
        assert list(tmp_path.iterdir()) == []


class TestChaos:
    def test_zero_rate_is_a_usage_error(self, capsys):
        assert main(["chaos", "--rate", "0", "--schedules", "1"]) == 2
        assert "repro chaos: rate must be > 0" in capsys.readouterr().err

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
