"""Every demo runs end to end against the current API.  The plot demos
run from a copy in ``tmp_path``, so the ``.dat`` files they write next
to themselves land there and are checked."""

import runpy
import shutil
from pathlib import Path

import numpy as np
import pytest

from nmrbaker.chaos import ExperimentConfig

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, heading", [
    ("demo_pulse_compiler.py", "canned step programs"),
    ("demo_baker_map.py", "closed form vs gate decomposition"),
])
def test_demo_runs(script, heading, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert heading in capsys.readouterr().out


@pytest.mark.parametrize("script", ["demo_entropy_growth.py", "demo_hypersensitivity.py"])
def test_plot_demo_writes_data_files(script, tmp_path, capsys):
    shutil.copy(DEMOS / script, tmp_path)
    results = runpy.run_path(str(tmp_path / script), run_name="__main__").get("results")
    capsys.readouterr()
    if results is None:  # one entropy curve per preset, steps 0..n
        files = {f"entropy_{p}.dat": (p, "step chaotic_bits regular_bits",
                                      ExperimentConfig.preset(p).steps + 1)
                 for p in ("fig2", "fig3", "fig4")}
    else:  # one exact frontier per map
        files = {f"imin_{v}.dat": ("fig5", "delta_s_bits i_min_bits", len(r.frontier.points()))
                 for v, r in results.items()}
    assert sorted(p.name for p in tmp_path.glob("*.dat")) == sorted(files)
    for name, (preset, columns, n_rows) in files.items():
        header = (tmp_path / name).read_text().splitlines()[0]
        assert header == f"# preset={preset} columns: {columns}"
        assert np.loadtxt(tmp_path / name, ndmin=2).shape == (n_rows, len(columns.split()))
