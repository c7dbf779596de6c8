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
SHIFT = "tests/test_baker.py::TestShiftStates::"
CANNED = "tests/test_nmr.py::TestCannedSequences::"
SWAP = "tests/test_nmr.py::TestCnotAndSwap::"
ACCEPT = "tests/test_acceptance.py::test_criterion_"
# the lightest test that evaluates a cli.CHECKS row with no test of its own
VERIFY = "tests/test_cli.py::TestVerifyCommand::test_all_checks_pass"


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
    Mutant("simplified-image-drops-shifted-in-bit", "baker.py",
           "[phase_qubit([n - 1])]",
           "[phase_qubit([])]",
           (SHIFT + "test_simplified_map_shift_property",)),
    Mutant("full-domain-basis-at-wrong-end", "baker.py",
           "[basis] + [phase_qubit(range(p - 1, -1, -1)) for p in range(1, n)]",
           "[phase_qubit(range(p - 1, -1, -1)) for p in range(1, n)] + [basis]",
           (SHIFT + "test_full_map_shift_property",)),
    # the verify row times t_even on the compiler reference already, so only
    # a run under the measured j2 shows swap delays that follow it
    Mutant("t-even-swap-on-measured-j2", "nmr.py",
           "swap_pulses((SPIN_C1, SPIN_C2), model.compiler_reference())",
           "swap_pulses((SPIN_C1, SPIN_C2), model)",
           ("tests/test_golden.py::test_cli_output_matches_golden[entropy_fig2]",)),
    Mutant("config-map-variant-guard-dropped", "chaos.py",
           "if self.map_variant not in MAP_VARIANTS:",
           "if False:",
           (CHAOS + "TestConfig::test_bad_field_rejected_at_construction",)),
    Mutant("config-steps-guard-dropped", "chaos.py",
           "if self.steps < 1:",
           "if False:",
           (CHAOS + "TestConfig::test_bad_field_rejected_at_construction",)),
    Mutant("config-seed-guard-dropped", "chaos.py",
           "if self.seed < 0:",
           "if False:",
           (HYPER + "test_negative_seed_rejected_before_work",)),
    Mutant("model-variant-guard-dropped", "nmr.py",
           "if self.variant not in VARIANTS:",
           "if False:",
           ("tests/test_nmr.py::TestHamiltonianModel::test_rejects_unknown_variant",)),
    Mutant("model-convention-guard-dropped", "nmr.py",
           "if self.convention not in CONVENTIONS:",
           "if False:",
           ("tests/test_nmr.py::TestHamiltonianModel::test_rejects_unknown_convention",)),
    # one mutant per cli.CHECKS row, in registry order, each caught by that row
    Mutant("gate-sequence-phase-angle", "baker.py",
           "phase(0, 1, np.pi / 2),",
           "phase(0, 1, np.pi / 4),",
           (ACCEPT + "1_map_construction_equivalence",)),
    Mutant("full-image-drops-bit-0", "baker.py",
           "image = [phase_qubit(range(p, -1, -1)) for p in range(n)]",
           "image = [phase_qubit(range(p, 0, -1)) for p in range(n)]",
           (ACCEPT + "2_shift_map_property",)),
    Mutant("simplified-domain-drops-bit-n-2", "baker.py",
           "[phase_qubit(range(p, n - 1)) for p in range(n - 1)]",
           "[phase_qubit(range(p, n - 2)) for p in range(n - 1)]",
           (ACCEPT + "2_shift_map_property",)),
    Mutant("z-rotation-variant-3-sign", "nmr.py",
           "body = [rot_y(spin, -half_pi), rot_x(spin, angle), rot_y(spin, half_pi)]",
           "body = [rot_y(spin, -half_pi), rot_x(spin, -angle), rot_y(spin, half_pi)]",
           (VERIFY,)),
    Mutant("hadamard-variant-2-reordered", "nmr.py",
           "body = [rot_y(spin, -np.pi / 2), rot_x(spin, -np.pi)]",
           "body = [rot_x(spin, -np.pi), rot_y(spin, -np.pi / 2)]",
           (VERIFY,)),
    Mutant("phase-gate-hc1-delay-halved", "nmr.py",
           "tau = angle / (2 * model.j1_eff)",
           "tau = angle / (4 * model.j1_eff)",
           ("tests/test_nmr.py::TestPhaseGatePulses::test_matches_logical_gate",)),
    Mutant("phase-gate-c1c2-offset-uncorrected", "nmr.py",
           "extra_b = 2 * model.delta_eff * tau",
           "extra_b = 0 * model.delta_eff * tau",
           (VERIFY,)),
    Mutant("swap-cnots-one-direction", "nmr.py",
           "seq = seq + cnot_pulses(a, b, model)",
           "seq = seq + cnot_pulses(b, a, model)",
           (SWAP + "test_swap_matrix",)),
    Mutant("cnot-half-phase", "nmr.py",
           "seq = seq + phase_gate_pulses(pair, np.pi, model)",
           "seq = seq + phase_gate_pulses(pair, np.pi / 2, model)",
           (SWAP + "test_swap_squares_to_identity",)),
    Mutant("t-odd-c2-correction-sign", "nmr.py",
           "rot_y(SPIN_C2, d * t1 - np.pi / 8),",
           "rot_y(SPIN_C2, d * t1 + np.pi / 8),",
           (CANNED + "test_t_odd_matches_ideal",)),
    Mutant("t-even-h-rotation-doubled", "nmr.py",
           "z_rotation_pulses(SPIN_H, np.pi / 8)",
           "z_rotation_pulses(SPIN_H, np.pi / 4)",
           (CANNED + "test_t_even_matches_ideal",)),
    Mutant("t-regular-odd-pulse-count", "nmr.py",
           "for _ in range(8):",
           "for _ in range(7):",
           (CANNED + "test_t_regular_matches_offset_rotation",)),
    Mutant("full-baker-last-rotation", "nmr.py",
           "rot_x(SPIN_H, np.pi / 4),",
           "rot_x(SPIN_H, np.pi / 2),",
           (CANNED + "test_appendix_matches_ideal",)),
    Mutant("t-odd-last-delay-dropped", "nmr.py",
           '        delay(t1),\n    ]\n    return _seq("t_odd"',
           '    ]\n    return _seq("t_odd"',
           (ACCEPT + "3_pulse_compiler_correctness",)),
    Mutant("t-even-phase-period-shortened", "nmr.py",
           "delay(5 * t3 / 2), rot_x(SPIN_H, np.pi), delay(3 * t3 / 2)",
           "delay(3 * t3 / 2), rot_x(SPIN_H, np.pi), delay(3 * t3 / 2)",
           (ACCEPT + "3_pulse_compiler_correctness",)),
    Mutant("tau4-not-matched-to-mean-step", "nmr.py",
           "return 21 * self.tau1 / 16",
           "return 5 * self.tau1 / 4",
           (ACCEPT + "3_pulse_compiler_correctness",)),
    Mutant("dephasing-rate-doubled", "lindblad.py",
           "gen += g * (np.kron(z, z.T) - np.eye(DIM * DIM))",
           "gen += 2 * g * (np.kron(z, z.T) - np.eye(DIM * DIM))",
           (VERIFY,)),
    Mutant("delay-propagator-first-order", "lindblad.py",
           "prop = np.diag(np.exp(self._diagonal * key))",
           "prop = np.diag(1 + self._diagonal * key)",
           ("tests/test_lindblad.py::TestDelayPropagator::test_semigroup_property",)),
    Mutant("rk4-steps-too-coarse", "lindblad.py",
           "(self.model.tau1 / 200)",
           "(self.model.tau1 / 2)",
           ("tests/test_lindblad.py::TestDelayPropagator::test_rk4_agrees_with_exact_exponential",)),
    # the drift fails run_sequence's own trace check first, so verify exits 3
    Mutant("delay-gains-trace", "lindblad.py",
           "return (propagator @ np.asarray(rho, dtype=complex).reshape(-1))",
           "return (1 + 1e-9) * (propagator @ np.asarray(rho, dtype=complex).reshape(-1))",
           (VERIFY,)),
    Mutant("j1-ignores-convention", "nmr.py",
           "return self.j1 * self._scale",
           "return self.j1",
           (VERIFY,)),
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
    # -o pythonpath puts the copy ahead of the checkout's src/ from pyproject.toml;
    # of the installed plugins only Hypothesis's is loaded, which halves start-up
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", "-o", f"pythonpath={src}", *mutant.tests],
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
