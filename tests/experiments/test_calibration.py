"""The calibration table names every cost-model constant once."""

import dataclasses

from repro.core.costs import CostModel
from repro.experiments import calibration


def test_every_cost_constant_has_exactly_one_provenance_row():
    rows = [field for field, _fmt, _source in calibration._PROVENANCE]
    assert sorted(rows) == sorted(
        field.name for field in dataclasses.fields(CostModel))


def test_table_renders_one_line_per_constant():
    rendered = calibration.run().render()
    for field, value, source in calibration.provenance():
        assert source in rendered and value in rendered, field
