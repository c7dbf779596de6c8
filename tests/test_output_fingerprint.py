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


def differences(before: str, after: str) -> list:
    """``output_fingerprint.differences`` of two stdout strings, run in a
    child, since importing the script pins this process's BLAS threads."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import output_fingerprint as f;"
            " print(json.dumps(list(f.differences(*sys.argv[2:]))))")
    out = subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent), before, after],
                         capture_output=True, text=True, check=True)
    return [tuple(found) for found in json.loads(out.stdout)]


def test_nan_is_a_whole_word_and_equals_nan():
    # a CLI hyper job prints the column ``provenance`` and may print
    # ``frontier_slope=nan``: neither is a moved number, so only the row
    # whose value moved is reported, with its own drift
    header = "# s_bar_max_bits=0.5 frontier_slope=nan partitions=2\ndelta_s_bits,i_min_bits,provenance\n"
    before, after = header + "0.5,1,exhaustive", header + f"{0.5 + 2**-40!r},1,exhaustive"
    assert differences(before, after) == [(":3", 2**-40, None)]
    assert differences(before, before.replace("=0.5 ", "=nan ")) == [
        (":1", None, f"{before.splitlines()[0]!r} -> {before.splitlines()[0].replace('=0.5 ', '=nan ')!r}")]
    assert differences("info=inf", "info=inf") == [] and differences("inf", "1") != []


def test_compare_of_a_cli_hyper_job_reports_its_own_drift(tmp_path):
    out = fingerprint("--workload", "cli_cold")
    assert out.returncode == 0, out.stderr
    cli = json.loads(out.stdout)
    label = next(label for label in cli if " hyper " in label)
    lines = cli[label]["stdout"].splitlines()
    row = next(n for n, line in enumerate(lines) if line.endswith(",exhaustive") and not line.startswith("0,"))
    delta_s, rest = lines[row].split(",", 1)
    lines[row] = f"{float(delta_s) + 2**-40!r},{rest}"
    moved = dict(cli, **{label: dict(cli[label], stdout="\n".join(lines) + "\n")})
    code, report = compare(moved, tmp_path, "cli_cold")
    assert code == 0 and report == [
        f"cli_cold: 1 of {len(cli)} entries moved, largest drift 9.1e-13, 0 changes of shape",
        f"  moved 9.1e-13  {label}"]
