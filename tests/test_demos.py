"""The demos that write no files run end to end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, heading", [
    ("demo_pulse_compiler.py", "canned step programs"),
    ("demo_baker_map.py", "closed form vs gate decomposition"),
])
def test_demo_runs(script, heading, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert heading in capsys.readouterr().out
