"""CLI stdout compared against the committed files in ``tests/golden/``.

Text between numbers must match exactly; numbers must agree within
|a - b| <= 1e-12 + 1e-9*|b|, the tolerance of the benchmark's reference
outputs.  A refactor that only reorders floating-point sums passes (the
``verify`` distances are round-off values that may move by an ulp),
while any real change to an output shows up as a failing line.

After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import math
import re
from pathlib import Path

import pytest

from nmrbaker import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    **{f"entropy_{p}": ["entropy", "--preset", p] for p in ("fig2", "fig3", "fig4", "fig5")},
    **{f"hyper_fig5_{m}": ["hyper", "--preset", "fig5", "--map", m]
       for m in ("chaotic", "regular")},
    "compile": ["compile"],
    "verify": ["verify"],
}
NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|\bnan\b|\binf\b)")
ATOL, RTOL = 1e-12, 1e-9


def same_line(got: str, want: str) -> bool:
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts) or got_parts[0::2] != want_parts[0::2]:
        return False
    for a, b in zip(map(float, got_parts[1::2]), map(float, want_parts[1::2])):
        if not (a == b or abs(a - b) <= ATOL + RTOL * abs(b)
                or (math.isnan(a) and math.isnan(b))):
            return False
    return True


def test_comparison_tolerance():
    assert same_line("t_odd 2.220e-16  1e-08  PASS", "t_odd 4.441e-16  1e-08  PASS")
    assert same_line("1,chaotic,1.0000000000000002", "1,chaotic,1")
    assert not same_line("1,chaotic,1.000001", "1,chaotic,1")
    assert not same_line("t_odd 2.220e-16  1e-08  FAIL", "t_odd 2.220e-16  1e-08  PASS")
    assert not same_line("steps=6 seed=0", "steps=6")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / "out.txt"
    assert cli.run(CASES[name] + ["--out", str(out)]) == 0
    got = out.read_text().splitlines()
    want = (GOLDEN / f"{name}.txt").read_text().splitlines()
    assert len(got) == len(want), f"{name}: {len(got)} lines, golden has {len(want)}"
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert same_line(g, w), f"{name}.txt line {n}: got {g!r}, golden {w!r}"


if __name__ == "__main__":
    for name, argv in CASES.items():
        if cli.run(argv + ["--out", str(GOLDEN / f"{name}.txt")]) != 0:
            raise SystemExit(f"nmrbaker {' '.join(argv)} failed")
