"""A SoakConfig field takes effect or is an error, never ignored --
through the API (``ValueError`` naming the fields) and through
``repro chaos`` (the same rule in flag wording)."""

import pytest

from repro.chaos import OverloadSpec, SoakConfig, run_soak
from repro.cli import main

RATES = (0.05, 0.02, 0.02, 0.01)

#: config fields, the CLI's spelling of them, the fields the error names.
REJECTED = [
    (dict(orchestrators=0), ["--orchestrators", "0"], ["orchestrators"]),
    (dict(orch_faults=True), ["--orch-faults"],
     ["orch_faults", "orchestrators"]),
    (dict(impair_data=RATES, orchestrators=3),
     ["--impair-data", "drop=0.05", "--orchestrators", "3"],
     ["impair_data", "orchestrators"]),
    (dict(reconfig=True, impair_data=RATES),
     ["--reconfig", "--impair-data", "drop=0.05"],
     ["reconfig", "impair_data"]),
    (dict(reconfig_crashes=True), ["--reconfig-crashes"],
     ["reconfig_crashes", "reconfig"]),
    (dict(overload=OverloadSpec(), impair_data=RATES),
     ["--overload", "--impair-data", "drop=0.05"],
     ["overload", "impair_data"]),
    (dict(overload=OverloadSpec(), reconfig=True),
     ["--overload", "--reconfig"], ["overload", "reconfig"]),
]
IDS = ["+".join(fields) for fields, _, _ in REJECTED]


@pytest.mark.parametrize("fields,_flags,named", REJECTED, ids=IDS)
def test_api_rejects_with_both_field_names(fields, _flags, named):
    with pytest.raises(ValueError) as err:
        SoakConfig(**fields)
    assert all(name in str(err.value) for name in named)


@pytest.mark.parametrize("_fields,flags,named", REJECTED, ids=IDS)
def test_cli_rejects_in_flag_wording(_fields, flags, named):
    with pytest.raises(SystemExit) as err:
        main(["chaos", "--schedules", "1"] + flags)
    message = str(err.value)
    assert message.startswith("repro chaos: ")
    assert all("--" + name.replace("_", "-") in message for name in named)
    assert "_" not in message  # flags, not field names


@pytest.mark.soak_overload
def test_overload_honours_orchestrators_through_the_api(capsys):
    """``overload`` + ``orchestrators=3`` used to run under a single
    orchestrator (0 elections); the API now does what the CLI does."""
    fields = dict(seed=0, schedules=1, chain_lengths=(3,), f_values=(1,))
    config = SoakConfig(overload=OverloadSpec(), orchestrators=3, **fields)
    assert config.overload.orchestrators == 3
    soak = run_soak(config)
    assert soak.ok, soak.summary()
    assert soak.schedules[0].elections > 0
    assert main(["chaos", "--seed", "0", "--schedules", "1", "--lengths",
                 "3", "--f-values", "1", "--overload",
                 "--orchestrators", "3"]) == 0
    printed = capsys.readouterr().out
    assert "orch=3" in printed and soak.summary() in printed
    # An explicit ensemble size in the spec wins over the soak-wide one.
    spec = OverloadSpec(orchestrators=5)
    assert SoakConfig(overload=spec, orchestrators=3).overload is spec
