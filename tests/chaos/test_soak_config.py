"""A ``repro chaos`` flag takes effect or is an error, never ignored --
and the error names the flags involved, in flag wording."""

import pytest

from repro.chaos import OverloadSpec, overload_scenario, run_soak
from repro.cli import main

#: id, the flags, the flags the error names.
REJECTED = [
    ("orchestrators", ["--orchestrators", "0"], ["--orchestrators"]),
    ("orch_faults", ["--orch-faults"], ["--orch-faults", "--orchestrators"]),
    ("impair_data+orchestrators",
     ["--impair-data", "drop=0.05", "--orchestrators", "3"],
     ["--impair-data", "--orchestrators"]),
    ("reconfig+impair_data", ["--reconfig", "--impair-data", "drop=0.05"],
     ["--reconfig", "--impair-data"]),
    ("reconfig_crashes", ["--reconfig-crashes"],
     ["--reconfig-crashes", "--reconfig"]),
    ("overload+impair_data", ["--overload", "--impair-data", "drop=0.05"],
     ["--overload", "--impair-data"]),
    ("overload+reconfig", ["--overload", "--reconfig"],
     ["--overload", "--reconfig"]),
    # Each of these used to run, silently dropping or raising the flag.
    ("overload+rate", ["--overload", "--rate", "1e4"],
     ["--overload", "--rate"]),
    ("impair_data+faults", ["--impair-data", "drop=0.05", "--faults", "2"],
     ["--impair-data", "--faults"]),
    ("reconfig+faults", ["--reconfig", "--faults", "2"],
     ["--reconfig", "--faults"]),
    ("overload+faults", ["--overload", "--faults", "2"],
     ["--overload", "--faults"]),
    ("reconfig+orch_faults",
     ["--reconfig", "--orchestrators", "3", "--orch-faults"],
     ["--reconfig", "--orch-faults"]),
    ("overload+orch_faults",
     ["--overload", "--orchestrators", "3", "--orch-faults"],
     ["--overload", "--orch-faults"]),
    ("reconfig+duration", ["--reconfig", "--duration", "0.05"],
     ["--reconfig", "--duration"]),
    ("overload+duration", ["--overload", "--duration", "0.1"],
     ["--overload", "--duration"]),
]
IDS = [case_id for case_id, _, _ in REJECTED]


@pytest.mark.parametrize("_id,flags,named", REJECTED, ids=IDS)
def test_cli_rejects_in_flag_wording(_id, flags, named):
    with pytest.raises(SystemExit) as err:
        main(["chaos", "--schedules", "1"] + flags)
    message = str(err.value)
    assert message.startswith("repro chaos: ")
    assert all(flag in message for flag in named)
    assert "_" not in message  # flags, not field names


@pytest.mark.soak_overload
def test_overload_honours_orchestrators_through_the_api(capsys):
    """``--overload`` + ``--orchestrators 3`` used to run under a single
    orchestrator (0 elections); the ensemble now really runs."""
    assert main(["chaos", "--seed", "0", "--schedules", "1", "--lengths",
                 "3", "--f-values", "1", "--overload",
                 "--orchestrators", "3"]) == 0
    printed = capsys.readouterr().out
    soak = run_soak([overload_scenario(
        seed=0, chain_length=3, f=1, spec=OverloadSpec(orchestrators=3))])
    assert soak.ok, soak.summary()
    assert len(soak.runs[0].ensemble.election_log) > 0
    assert "orch=3" in printed and soak.summary() in printed
    # An explicit ensemble size in the spec wins over the soak-wide one.
    assert main(["chaos", "--schedules", "0", "--overload", "orch=5",
                 "--orchestrators", "3"]) == 0
    assert "orch=5" in capsys.readouterr().out
