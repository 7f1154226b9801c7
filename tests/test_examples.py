"""Smoke tests: the example scripts run end to end."""

import pathlib
import runpy

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart_runs(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "recovered in" in out
    assert ">= released: True" in out


def test_custom_middlebox_runs(capsys):
    _run("custom_middlebox.py")
    out = capsys.readouterr().out
    assert "scanner flagged = True" in out


def test_examples_exist_and_are_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        text = (EXAMPLES / script).read_text()
        assert text.lstrip().startswith('"""'), f"{script} lacks a docstring"
        assert "Run:" in text, f"{script} lacks run instructions"
