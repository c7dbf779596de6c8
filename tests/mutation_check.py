"""Rerunnable mutation check: do the tests still catch known faults?

For each mutant this copies ``src/`` to a temporary directory, replaces one
exact piece of text in one module there, and runs the mutant's test node
IDs against the copy with ``-x -q``.  The mutant is caught when those tests
fail.  pytest does not collect this file (its name does not start with
``test_``); run it from any directory:

    python tests/mutation_check.py          # every mutant
    python tests/mutation_check.py NAME...  # only the named ones

It prints one line per mutant and exits nonzero when a mutant expected to
be caught survives, or when a mutant's text does not occur exactly once in
its module (the table no longer matches the code).  Known equivalent
mutants are listed with ``caught=False`` and the reason they survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHAOS = "tests/test_chaos.py::"
GREEDY = CHAOS + "TestGreedyGrouping::"
HYPER = CHAOS + "TestHypersensitivityExperiment::"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file under src/nmrbaker
    old: str
    new: str
    tests: tuple[str, ...]
    caught: bool = True
    why: str = ""  # for an expected survivor: why no test can tell


MUTANTS = (
    Mutant("argmin-last-of-equal", "chaos.py",
           "g = dists.argmin(axis=1)",
           "g = k - 1 - dists[:, ::-1].argmin(axis=1)",
           (GREEDY + "test_lockstep_rows_on_the_regular_map",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("memo-key-ignores-idx", "chaos.py",
           "keys = masks * n + idx[:, None]",
           "keys = masks * n + 0 * idx[:, None]",
           (GREEDY + "test_shared_memo_changes_no_assignment",
            HYPER + "test_greedy_diagonalises_once_per_memo_key")),
    Mutant("mixture-is-the-grown-mean", "chaos.py",
           "(means[mask] + means[bits[placed]]) / 2",
           "means[mask | bits[placed]]",
           (GREEDY + "test_shared_memo_changes_no_assignment",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("group-entropy-of-the-seed-only", "chaos.py",
           "(entropies[masks] + entropies[bits[idx]][:, None])",
           "(entropies[bits[draws]] + entropies[bits[idx]][:, None])",
           (GREEDY + "test_matches_js_distance_reference",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("dots-by-einsum", "chaos.py",
           "return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]",
           'return np.einsum("ij,ij->i", a, b)',
           (CHAOS + "TestPartitionProperties::test_scan_equals_scoring_each_partition",)),
    Mutant("first-scan-row-dropped", "chaos.py",
           "points, table = [first],",
           "points, table = [],",
           (HYPER + "test_greedy_points_equal_drawing_every_group_count",
            HYPER + "test_short_ensembles_equal_drawing_every_group_count")),
    Mutant("last-scan-row-dropped", "chaos.py",
           "_pareto_points([*points, last])",
           "_pareto_points(points)",
           (HYPER + "test_greedy_points_equal_drawing_every_group_count",
            HYPER + "test_short_ensembles_equal_drawing_every_group_count")),
    Mutant("regular-map-kicks-c2", "chaos.py",
           'return [(nmr.t_regular(model), LIFTED_PAULI["Z", SPIN_H])] * n_steps',
           'return [(nmr.t_regular(model), LIFTED_PAULI["Z", SPIN_C2])] * n_steps',
           (CHAOS + "TestRegularMapClosedForm::test_history_members_are_two_states",)),
    Mutant("averaged-kick-dropped", "chaos.py",
           "rho = _averaged_kick(rho, z)",
           "rho = rho",
           (CHAOS + "TestRegularMapClosedForm::test_entropy_series",)),
    Mutant("j2-guard-dropped", "nmr.py",
           "if not (math.isfinite(self.j2) and self.j2 > 0):",
           "if False:",
           ("tests/test_nmr.py::TestHamiltonianModel::test_rejects_j2_not_finite_and_positive",)),
    Mutant("exchange-xx-minus-yy", "nmr.py",
           "h = h + self.j2_eff / 4 * (xx + yy)",
           "h = h + self.j2_eff / 4 * (xx - yy)",
           ("tests/test_nmr.py::TestHamiltonianModel::test_matrix_equals_kron_products",)),
    Mutant("embed-position-reversed", "qstate.py",
           "k = order.index(target)",
           "k = len(order) - 1 - order.index(target)",
           ("tests/test_qstate.py::TestEmbed::test_every_position_is_the_kron_placement",)),
    Mutant("subset-member-shape-guard-dropped", "chaos.py",
           "if any(r.shape != shape for r in rhos):",
           "if False:",
           (CHAOS + "TestSubsetEntropies::test_mixed_shapes_rejected",)),
    Mutant("greedy-memo-shape-guard-dropped", "chaos.py",
           "if table.shape != (2**n, n) or not table.flags.c_contiguous:",
           "if not table.flags.c_contiguous:",
           (GREEDY + "test_memo_shape_validated",)),
    Mutant("noise-rate-guard-dropped", "lindblad.py",
           "if not (math.isfinite(g) and g >= 0):",
           "if False:",
           ("tests/test_lindblad.py::TestNoiseModel::test_negative_rate_rejected",)),
    Mutant("delay-duration-guard-dropped", "lindblad.py",
           "if not (math.isfinite(duration) and duration >= 0):",
           "if False:",
           ("tests/test_lindblad.py::TestDelayPropagator::test_negative_duration_rejected",
            "tests/test_lindblad.py::TestDelayPropagator::test_non_finite_duration_rejected")),
    Mutant("entropy-finiteness-guard-dropped", "qstate.py",
           "if not np.isfinite(rhos).all():",
           "if False:",
           ("tests/test_qstate.py::TestEntropy::test_rejects_non_finite_entries",)),
    Mutant("diagonal-terms-reordered", "nmr.py",
           "h = (self.j1_eff / 4 * (z_h @ z_c1) + self.j2_eff / 4 * (z_c1 @ z_c2)\n"
           "             + self.delta_eff / 2 * z_c2)",
           "h = (self.delta_eff / 2 * z_c2 + self.j2_eff / 4 * (z_c1 @ z_c2)\n"
           "             + self.j1_eff / 4 * (z_h @ z_c1))",
           ("tests/test_nmr.py::TestHamiltonianModel::test_matrix_equals_kron_products",),
           caught=False,
           why="the three diagonal terms sum to the same floats in either order"
               " for every variant and convention, so the operator stays array_equal"),
)


def run(mutant: Mutant, scratch: Path) -> bool:
    """Apply ``mutant`` to a fresh copy of ``src/`` and report whether its tests fail."""
    src = scratch / mutant.name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "nmrbaker" / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the text to replace occurs {text.count(mutant.old)}"
                         f" times in {mutant.module}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))
    # -o pythonpath puts the copy ahead of the checkout's src/ from pyproject.toml
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # 1: tests failed; anything else: pytest could not run them
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")
    return result.returncode == 1


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    unknown = set(names) - known
    if unknown:
        raise SystemExit(f"unknown mutants {sorted(unknown)}; choose from {sorted(known)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    missed = 0
    counts = {True: 0, False: 0}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nmrbaker-mutants-") as scratch:
        for mutant in chosen:
            caught = run(mutant, Path(scratch))
            counts[caught] += 1
            note = "" if caught == mutant.caught else (
                "  EXPECTED CAUGHT" if mutant.caught else "  (listed as a survivor)")
            if mutant.caught and not caught:
                missed += 1
            why = f"  ({mutant.why})" if not caught and mutant.why else ""
            print(f"{'caught  ' if caught else 'survived'}  {mutant.name}{note}{why}", flush=True)
    print(f"{counts[True]} caught, {counts[False]} survived, {missed} expected-caught mutants survived,"
          f" {time.perf_counter() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
