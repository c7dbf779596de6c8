"""The output fingerprint's ``--workload`` filter, alone and with ``--compare``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "output_fingerprint.py"


def fingerprint(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, check=False)


@pytest.fixture(scope="module")
def hyper() -> dict:
    out = fingerprint("--workload", "hyper_sweep")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def compare(before: dict, tmp_path, *workloads) -> tuple[int, list[str]]:
    path = tmp_path / "before.json"
    path.write_text(json.dumps(before))
    out = fingerprint(*(arg for name in workloads for arg in ("--workload", name)), "--compare", str(path))
    assert not out.stderr, out.stderr
    return out.returncode, out.stdout.splitlines()


def test_filter_keeps_the_named_workload_only(hyper):
    assert {tuple(label.split()[:2]) for label in hyper} == {("hyper_sweep", "seed=0"), ("hyper_sweep", "seed=1")}


def test_filter_repeats_and_keeps_workload_order(hyper):
    out = fingerprint("--workload", "cli_cold", "--workload", "hyper_sweep")
    both = json.loads(out.stdout)
    names = [label.split()[0] for label in both]
    assert out.returncode == 0 and names == sorted(names, key=("hyper_sweep", "cli_cold").index)
    assert {label: value for label, value in both.items() if label in hyper} == hyper
    assert "cli_cold" in names


def test_compare_reads_only_the_named_workloads_entries(hyper, tmp_path):
    # another workload's entries in BEFORE.json are not compared
    stale = dict(hyper, **{"entropy_sweep seed=0 #0: stale": [float.hex(1.0)]})
    assert compare(stale, tmp_path, "hyper_sweep") == (
        0, [f"hyper_sweep: 0 of {len(hyper)} entries moved, largest drift 0, 0 changes of shape"])
    # a moved float of the named workload is reported, and only a change of
    # shape or a missing entry fails
    label = next(iter(hyper))
    moved = dict(hyper, **{label: dict(hyper[label], s_bar_max=float.hex(
        float.fromhex(hyper[label]["s_bar_max"]) + 2**-40))})
    code, lines = compare(moved, tmp_path, "hyper_sweep")
    assert code == 0 and lines[0].startswith(f"hyper_sweep: 1 of {len(hyper)} entries moved, largest drift 9.1e-13")
    assert lines[1] == f"  moved 9.1e-13  {label}"
    missing = {key: value for key, value in hyper.items() if key != label}
    code, lines = compare(missing, tmp_path, "hyper_sweep")
    assert code == 1 and lines[0] == "entries differ: 0 only before, 1 only after"
