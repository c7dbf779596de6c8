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
DRAWS = CHAOS + "TestGreedyDraws::"
SHIFT = "tests/test_baker.py::TestShiftStates::"
LIOUVILLIAN = "tests/test_lindblad.py::TestLiouvillian::"
RUN = "tests/test_lindblad.py::TestRunSequence::"
BUFFERS = "tests/test_lindblad.py::TestEvolveBuffers::"
OPERATORS = "tests/test_lindblad.py::TestOperators::"
DELAY = "tests/test_lindblad.py::TestDelayPropagator::"
GENERATOR = "tests/test_lindblad.py::TestGeneratorBuilds::"
ORACLE = CHAOS + "TestPerInstructionOracle::"
DISTINCT = CHAOS + "TestDistinctMatrices::"
FLIP = CHAOS + "TestFlipClasses::"
ENTROPY = CHAOS + "TestEntropyExperiment::"
STACKED = "tests/test_qstate.py::TestStackedDensityChecks::"
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
           "dists.argmin(axis=1)",
           "dists.shape[1] - 1 - dists[:, ::-1].argmin(axis=1)",
           (GREEDY + "test_lockstep_rows_on_the_regular_map",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("memo-key-ignores-idx", "chaos.py",
           "keys = ids[m] * n + cls[idx][:, None]",
           "keys = ids[m] * n + 0 * cls[idx][:, None]",
           (GREEDY + "test_one_call_over_every_count_changes_no_assignment",
            HYPER + "test_greedy_diagonalises_once_per_memo_key")),
    # the same on the chaotic map, whose ids are the masks; on the regular
    # map a mask reads past the memo's rows
    Mutant("memo-key-reads-the-mask-not-its-id", "chaos.py",
           "keys = ids[m] * n + cls[idx][:, None]",
           "keys = m * n + cls[idx][:, None]",
           (HYPER + "test_greedy_diagonalises_once_per_memo_key",)),
    # each state's class is the lowest member whose bytes differ from it
    Mutant("memo-class-is-another-members", "chaos.py",
           "cls = (ids[bits][:, None] == ids[bits]).argmax(axis=1)",
           "cls = (ids[bits][:, None] != ids[bits]).argmax(axis=1)",
           (DISTINCT + "test_rows_equal_the_mask_keyed_greedy",)),
    # the same bits, with a second dedupe of the table per job
    Mutant("distinct-means-found-again-by-greedy", "chaos.py",
           "_greedy_groupings(means, entropies, seeds, *distinct)",
           "greedy_groupings(means, entropies, seeds)",
           (HYPER + "test_distinct_means_found_once_per_job",)),
    Mutant("mixture-is-the-grown-mean", "chaos.py",
           "(means[first[mean]] + means[bits[member]]) / 2",
           "means[first[mean] | bits[member]]",
           (GREEDY + "test_one_call_over_every_count_changes_no_assignment",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("group-entropy-of-its-first-member-only", "chaos.py",
           "(entropies[m] + entropies[bits[idx]][:, None])",
           "(entropies[m & -m] + entropies[bits[idx]][:, None])",
           (GREEDY + "test_matches_js_distance_reference",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("one-member-mixture-read-at-the-group", "chaos.py",
           "memo[ids[bits][:, None], cls] = entropies[bits[:, None] | bits]",
           "memo[ids[bits][:, None], cls] = entropies[bits[:, None]]",
           (GREEDY + "test_one_call_over_every_count_changes_no_assignment",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    # an unused slot (mask 0) of a run then reads S(rho_idx) / 2
    Mutant("unused-group-slot-not-masked", "chaos.py",
           "dists[m == 0] = np.inf",
           "dists[m < 0] = np.inf",
           (GREEDY + "test_one_call_over_every_count_changes_no_assignment",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    # members repeat, distinct means: one diagonalisation each
    Mutant("distinct-key-reads-the-real-part-only", "chaos.py",
           "sorted_bytes = flat[order].view(np.int64)",
           "sorted_bytes = flat[order].real",
           (DISTINCT + "test_matrices_are_told_apart_by_every_byte",)),
    Mutant("distinct-matrices-gate-inverted", "chaos.py",
           "for member in means[1 << np.arange(n)]}) == n:",
           "for member in means[1 << np.arange(n)]}) != n:",
           (DISTINCT + "test_subset_table_diagonalises_each_distinct_mean_once",
            GREEDY + "test_one_call_over_every_count_changes_no_assignment")),
    # a subset and its image under i <-> i XOR 2 need not share a spectrum
    Mutant("flip-pairs-member-with-its-xor-2", "chaos.py",
           "(1 << (members ^ 1))",
           "(1 << (members ^ 2))",
           (FLIP + "test_chaotic_table_equals_subset_entropies",)),
    # the regular map's repeated members: its 24 distinct means, not 135 orbits
    Mutant("flip-classes-read-for-a-regular-table", "chaos.py",
           "if len(distinct[1]) == len(means) else distinct",
           "if True else distinct",
           (FLIP + "test_job_diagonalises_one_table_mean_per_class",)),
    # a finished run then places one of its seeds again
    Mutant("finished-run-still-advances", "chaos.py",
           "rows = np.flatnonzero(sizes < n - step)",
           "rows = np.arange(runs)",
           (GREEDY + "test_one_call_over_every_count_changes_no_assignment",
            CHAOS + "TestPartitionProperties::test_lockstep_rows_equal_one_draw_at_a_time")),
    Mutant("greedy-repeat-guard-dropped", "chaos.py",
           "or (masks.sum(axis=1) != union).any()",
           "or False",
           (GREEDY + "test_every_draw_validated[repeat]",
            GREEDY + "test_every_draw_validated[repeat-past-a-gap]")),
    Mutant("two-bit-seed-mask-accepted", "chaos.py",
           " | ((masks & (masks - 1)) != 0)",
           "",
           (GREEDY + "test_every_draw_validated[two-bits]",
            GREEDY + "test_every_draw_validated[two-bits-in-a-later-row]")),
    # -2**63 & (-2**63 - 1) wraps to 0, so only the sign test rejects it
    Mutant("negative-seed-mask-accepted", "chaos.py",
           "(masks < 0) | ",
           "",
           (GREEDY + "test_every_draw_validated[most-negative]",)),
    # a run with no member then puts every state into its first slot
    Mutant("memberless-seed-row-accepted", "chaos.py",
           " or not union.all()",
           "",
           (GREEDY + "test_every_draw_validated[empty-row]",)),
    # each state takes the first group that lacks it: for two groups the
    # partition survives relabelled, for more it does not
    Mutant("labels-read-from-the-wrong-group", "chaos.py",
           "(masks[:, None] >> np.arange(len(entropies).bit_length() - 1) & 1).argmax(axis=0)",
           "(masks[:, None] >> np.arange(len(entropies).bit_length() - 1) & 1 ^ 1).argmax(axis=0)",
           (GREEDY + "test_seed_rows_are_not_written",
            GREEDY + "test_matches_js_distance_reference")),
    # a lane of k members keeps the draws past them as members too
    Mutant("draw-masks-not-zeroed-past-k", "chaos.py",
           "np.where(np.arange(n - 1)[:, None] < tail[0], chosen, 0)",
           "np.where(np.arange(n - 1)[:, None] < n - 1, chosen, 0)",
           (DRAWS + "test_seeds_at_word_edges",
            DRAWS + "test_rows_equal_numpy_choice")),
    Mutant("pcg-carry-dropped", "chaos.py",
           "hi = p_hi[0] + p_hi[1] + (lo < p_lo[1])",
           "hi = p_hi[0] + p_hi[1]",
           (DRAWS + "test_seeds_at_word_edges",
            DRAWS + "test_words_equal_pcg64_raw_outputs")),
    Mutant("floyd-repeat-keeps-val", "chaos.py",
           "np.where(chosen.sum(axis=0) >> drawn[t] & 1, 1 << tops[t], 1 << drawn[t])",
           "np.where(chosen.sum(axis=0) >> drawn[t] & 1, 1 << drawn[t], 1 << drawn[t])",
           (DRAWS + "test_seeds_at_word_edges",)),
    Mutant("rejection-loop-skipped", "chaos.py",
           "if not rejected.any():",
           "if True:",
           (DRAWS + "test_rejected_words_are_redrawn",)),
    Mutant("entropy-past-the-pool-ignored", "chaos.py",
           "    for hashed in _hashmix(words[4:, None], consts[:, 16:].reshape(2, -1, 4, 1)):\n        pool = mix(pool, hashed)\n",
           "",
           (DRAWS + "test_seeds_at_word_edges",
            DRAWS + "test_seeding_equals_seed_sequence")),
    # the last swap, of slot 1, gets a zero top and swaps nothing
    Mutant("shuffle-stops-at-two", "chaos.py",
           "np.maximum(2 * k - 1 - t, 0)",
           "(2 * k - 1 - t) * (2 * k - 1 - t > 1)",
           (DRAWS + "test_seeds_at_word_edges",)),
    Mutant("draw-guard-dropped", "chaos.py",
           "if seed < 0 or not 1 <= n <= MAX_SCAN_STATES:",
           "if False:",
           (DRAWS + "test_bad_seed_or_state_count_rejected",)),
    # every output is the state one step earlier: M**t s + (M**(t+1) - 1) / (M - 1) c
    Mutant("jump-constants-one-step-off", "chaos.py",
           "pairs = powers[2:], list(accumulate(powers, lambda a, b: (a + b) % 2**128))[2:]",
           "pairs = powers[1:-1], list(accumulate(powers, lambda a, b: (a + b) % 2**128))[1:-1]",
           (DRAWS + "test_words_equal_pcg64_raw_outputs",
            DRAWS + "test_seeds_at_word_edges")),
    # each pool word is hashed into itself and skips the word after it
    Mutant("source-word-hashed-into-its-own-pool-word", "chaos.py",
           "dst = [d for d in range(4) if d != src]",
           "dst = [d for d in range(4) if d != (src + 1) % 4]",
           (DRAWS + "test_seeding_equals_seed_sequence",
            DRAWS + "test_seeds_at_word_edges")),
    # the redrawn position takes the next word, which its lane's next draw reads too
    Mutant("rejected-word-does-not-shift-later-draws", "chaos.py",
           "at = at + lanes * np.maximum.accumulate(rejected, axis=0)",
           "at = at + lanes * rejected",
           (DRAWS + "test_rejected_words_are_redrawn",)),
    Mutant("pcg-increment-not-odd", "chaos.py",
           "i_lo << 1 | 1",
           "i_lo << 1",
           (DRAWS + "test_words_equal_pcg64_raw_outputs",
            DRAWS + "test_seeds_at_word_edges")),
    Mutant("curve-levels-start-at-their-last-point", "chaos.py",
           "rises = np.flatnonzero(np.diff(i_min, prepend=-np.inf))",
           "rises = np.flatnonzero(np.diff(i_min, append=np.inf))",
           (CHAOS + "TestExhaustiveFrontier::test_staircase_expands_to_the_running_minimum",)),
    # each prefix then gets children 0 .. max only: no element opens a group
    Mutant("rgs-no-new-group", "chaos.py",
           "strings[:, :k].max(axis=1) + 2",
           "strings[:, :k].max(axis=1) + 1",
           (CHAOS + "TestSetPartitions::test_bell_numbers",)),
    # the same strings, each prefix's children in descending order
    Mutant("rgs-children-reversed", "chaos.py",
           "np.arange(len(strings)) - np.repeat(np.cumsum(children) - children, children)",
           "np.repeat(np.cumsum(children) - 1, children) - np.arange(len(strings))",
           (CHAOS + "TestSetPartitions::test_rows_are_in_lexicographic_order",)),
    # naming each group by its highest member: the keys no longer ascend
    Mutant("scan-key-names-groups-by-their-highest-member", "chaos.py",
           "weights = subsets.argmax(axis=1) * (subsets @ n ** np.arange(n - 1, -1, -1))",
           "weights = (n - 1 - subsets[:, ::-1].argmax(axis=1)) * (subsets @ n ** np.arange(n - 1, -1, -1))",
           (CHAOS + "TestPartitionProperties::test_every_partition_at_its_index_in_any_slot_order",)),
    Mutant("dots-by-einsum", "chaos.py",
           "return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]",
           'return np.einsum("ij,ij->i", a, b)',
           (CHAOS + "TestPartitionProperties::test_scan_equals_scoring_each_partition",)),
    Mutant("first-scan-row-dropped", "chaos.py",
           "pos = [0, len(delta_s) - 1]",
           "pos = [len(delta_s) - 1]",
           (HYPER + "test_greedy_points_equal_drawing_every_group_count",
            HYPER + "test_short_ensembles_equal_drawing_every_group_count")),
    Mutant("last-scan-row-dropped", "chaos.py",
           "pos = [0, len(delta_s) - 1]",
           "pos = [0]",
           (HYPER + "test_greedy_points_equal_drawing_every_group_count",
            HYPER + "test_short_ensembles_equal_drawing_every_group_count")),
    Mutant("regular-map-kicks-c2", "chaos.py",
           "else [(t_regular, SPIN_H)])",
           "else [(t_regular, SPIN_C2)])",
           (CHAOS + "TestRegularMapClosedForm::test_history_members_are_two_states",)),
    Mutant("even-steps-run-t-odd", "chaos.py",
           "[(t_odd, SPIN_H), (t_even, SPIN_C2)]",
           "[(t_odd, SPIN_H), (t_odd, SPIN_C2)]",
           (CHAOS + "TestSteps::test_schedule",)),
    # a one-step chaotic run would build t_even's propagators for nothing
    Mutant("steps-resolve-unused-programs", "chaos.py",
           "(t_even, SPIN_C2)][:n_steps]",
           "(t_even, SPIN_C2)]",
           (CHAOS + "TestSteps::test_each_used_program_resolves_once",)),
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
           "if operator.index(self.steps) < 1:",
           "if False:",
           (CHAOS + "TestConfig::test_bad_field_rejected_at_construction",)),
    Mutant("config-seed-guard-dropped", "chaos.py",
           "if operator.index(self.seed) < 0:",
           "if False:",
           (HYPER + "test_negative_seed_rejected_before_work",)),
    Mutant("config-seed-may-be-a-float", "chaos.py",
           "if operator.index(self.seed) < 0:",
           "if self.seed < 0:",
           (CHAOS + "TestConfig::test_non_integral_count_rejected_before_any_engine",)),
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
    # the one rate sum of the dense generator and of a diagonal engine's
    Mutant("dephasing-rate-doubled", "lindblad.py",
           "gen += g * dephasing[spin]",
           "gen += 2 * g * dephasing[spin]",
           (VERIFY,)),
    # a diagonal engine's sum drops H's term, which the dense build keeps
    Mutant("diagonal-sum-skips-the-h-rate", "lindblad.py",
           "_rated(diagonal, _DEPHASING_DIAGONAL, noise)",
           "_rated(diagonal, _DEPHASING_DIAGONAL, NoiseModel(0.0, noise.gamma_c1, noise.gamma_c2))",
           (GENERATOR + "test_diagonal_engine_builds_no_dense_generator",)),
    # every model after the first to plan a program gets the first's plan
    Mutant("plan-cache-ignores-model", "lindblad.py",
           "@lru_cache(maxsize=256)\ndef _plan(",
           "@lambda build: lambda seq, model, memo={}: memo[seq] if seq in memo"
           " else memo.setdefault(seq, build(seq, model))\ndef _plan(",
           (OPERATORS + "test_program_is_planned_once_per_model",)),
    # every model after the first gets the first model's commutator
    Mutant("commutator-cache-ignores-model", "lindblad.py",
           "@lru_cache(maxsize=64)\ndef _commutator(",
           "@lambda build: lambda model, first=[]: first[0] if first else first.append(build(model))"
           " or first[0]\ndef _commutator(",
           (LIOUVILLIAN + "test_cached_parts_equal_the_kron_build",)),
    Mutant("stack-check-reads-first-state-only", "qstate.py",
           "states = rho.reshape(-1, *rho.shape[-2:])",
           "states = rho.reshape(-1, *rho.shape[-2:])[:1]",
           (RUN + "test_invalid_input_anywhere_in_a_stack_rejected",
            RUN + "test_invalid_output_anywhere_in_a_stack_raises")),
    # each vectorised test of the stacked check, on the first state only; a
    # non-finite state past the first is then not zeroed and reaches
    # inf - inf, which warns
    Mutant("stack-finite-test-reads-first-state-only", "qstate.py",
           "if not np.isfinite(raw).all():",
           "if not np.isfinite(raw[:1]).all():",
           (STACKED + "test_one_bad_state_anywhere_gives_its_own_messages",)),
    Mutant("stack-hermiticity-test-reads-first-state-only", "qstate.py",
           "np.abs(states - states.conj().swapaxes(-1, -2)).max(",
           "np.abs(states - states.conj().swapaxes(-1, -2))[:1].max(",
           (STACKED + "test_one_bad_state_anywhere_gives_its_own_messages",)),
    Mutant("stack-trace-test-reads-first-state-only", "qstate.py",
           "np.trace(states, axis1=-2, axis2=-1)",
           "np.trace(states[:1], axis1=-2, axis2=-1)",
           (STACKED + "test_one_bad_state_anywhere_gives_its_own_messages",)),
    Mutant("stack-eigenvalue-test-reads-first-state-only", "qstate.py",
           "w = np.linalg.eigvalsh(states)",
           "w = np.linalg.eigvalsh(states[:1])",
           (STACKED + "test_one_bad_state_anywhere_gives_its_own_messages",)),
    Mutant("defects-report-last-bad-state", "qstate.py",
           "i = bad.argmax()",
           "i = len(bad) - 1 - bad[::-1].argmax()",
           (STACKED + "test_first_bad_state_is_the_one_reported",)),
    Mutant("evolve-output-check-dropped", "lindblad.py",
           "defects, spectra = qstate.density_matrix_defects(states)\n",
           "defects, spectra = [], qstate.density_matrix_defects(states)[1]\n",
           (RUN + "test_invalid_output_anywhere_in_a_stack_raises",
            "tests/test_cli.py::TestExitCodes::test_physics_violation_exits_three")),
    # a bad step before the last one then shows only as the later NaN
    Mutant("entropy-check-reads-the-last-state-only", "chaos.py",
           "return states, _check_evolved(states)",
           "return states, _check_evolved(states[-1:])",
           (ENTROPY + "test_first_bad_step_raises_what_a_per_step_check_raised",)),
    # a perturbed run's stack without its evolved half, so only the kicks are checked
    Mutant("perturbed-run-checks-the-kicked-states", "chaos.py",
           "return states, _check_evolved(states)",
           "return states, _check_evolved(states[-config.steps:])",
           (ENTROPY + "test_defect_the_kick_would_erase_still_raises",)),
    # the same series from a second eigvalsh, with the kicks left unchecked
    Mutant("entropy-run-checks-the-evolved-half-only", "chaos.py",
           "return states, _check_evolved(states)",
           "return states, (_check_evolved(states[:config.steps]), np.linalg.eigvalsh(states))[1]",
           ("tests/test_cli.py::TestExitCodes::test_last_kick_is_checked",)),
    Mutant("series-scores-the-unkicked-states", "chaos.py",
           "entropy_run(config)[1][-config.steps:]",
           "entropy_run(config)[1][:config.steps]",
           (ENTROPY + "test_equals_the_per_step_loop_bit_for_bit",)),
    # the check's verdict is unchanged for a Hermitian state, but the series
    # then comes from (rho + rho^dag)/2, not from the state eigvalsh reads
    Mutant("series-from-the-hermitian-parts-spectra", "qstate.py",
           "w = np.linalg.eigvalsh(states)",
           "w = np.linalg.eigvalsh((states + states.conj().swapaxes(-1, -2)) / 2)",
           (ENTROPY + "test_equals_the_per_step_loop_bit_for_bit",)),
    Mutant("history-checks-its-last-step-only", "chaos.py",
           "    _check_evolved(evolved)\n    return list(states)",
           "    _check_evolved(evolved[2**(n_steps - 1) - 1:])\n    return list(states)",
           (CHAOS + "TestHistoryEnsemble::test_first_bad_step_raises_what_a_per_step_check_raised",)),
    Mutant("pulse-product-order-reversed", "lindblad.py",
           "u = pulse_unitary(instruction, model) @ u",
           "u = u @ pulse_unitary(instruction, model)",
           (OPERATORS + "test_program_resolves_once_per_engine",
            ORACLE + "test_chaotic_map_equals_it_at_round_off")),
    Mutant("pulse-adjoint-of-the-first-pulse-only", "lindblad.py",
           "uh = u.conj().T",
           "uh = pulse_unitary(first, model).conj().T",
           (OPERATORS + "test_program_resolves_once_per_engine",
            ORACLE + "test_chaotic_map_equals_it_at_round_off")),
    # every pulse of the program in one run, and every delay after it
    Mutant("pulse-runs-merged-across-delays", "lindblad.py",
           'groupby(seq.instructions, key=lambda ins: ins.op != "U")',
           'groupby(sorted(seq.instructions, key=lambda ins: ins.op == "U"), key=lambda ins: ins.op != "U")',
           (OPERATORS + "test_program_resolves_once_per_engine",
            ORACLE + "test_chaotic_map_equals_it_at_round_off")),
    Mutant("delay-propagator-first-order", "lindblad.py",
           "prop = np.diag(np.exp(self._diagonal * key))",
           "prop = np.diag(1 + self._diagonal * key)",
           ("tests/test_lindblad.py::TestDelayPropagator::test_semigroup_property",)),
    Mutant("rk4-steps-too-coarse", "lindblad.py",
           "(self.model.tau1 / 200)",
           "(self.model.tau1 / 2)",
           ("tests/test_lindblad.py::TestDelayPropagator::test_rk4_agrees_with_exact_exponential",)),
    # the drift fails the run's output check first, so verify exits 3
    Mutant("delay-gains-trace", "lindblad.py",
           "product(a, cur_flat, out=other_flat)",
           "product((1 + 1e-9) * a, cur_flat, out=other_flat)",
           (VERIFY,)),
    # (u rho) u^dag becomes u (rho u^dag): equal but for round-off
    Mutant("lone-state-pulse-pair-reassociated", "lindblad.py",
           "product(product(a, cur, out=other), b, out=cur)",
           "product(a, product(cur, b, out=other), out=cur)",
           (ENTROPY + "test_equals_the_per_step_loop_bit_for_bit",
            RUN + "test_lone_state_equals_its_stack_row_and_the_matmul_loop_byte_for_byte")),
    # each state read column by column: the delay acts on its transpose
    Mutant("lone-state-delay-flattened-in-fortran-order", "lindblad.py",
           "product(a, cur_flat, out=other_flat)",
           'product(a, cur.reshape(flat, order="F"), out=other_flat)',
           (ENTROPY + "test_equals_the_per_step_loop_bit_for_bit",
            RUN + "test_lone_state_equals_its_stack_row_and_the_matmul_loop_byte_for_byte")),
    # a delay's result lands in the other buffer, but the next operator and
    # the return read the state from before it: every delay is lost
    Mutant("delay-buffers-not-swapped", "lindblad.py",
           "cur, other, cur_flat, other_flat = other, cur, other_flat, cur_flat",
           "pass",
           (BUFFERS + "test_input_is_left_untouched_and_may_be_read_only[lone]",
            BUFFERS + "test_input_is_left_untouched_and_may_be_read_only[stack]")),
    # the second buffer is the caller's array: the first product overwrites
    # it, or fails on a read-only input
    Mutant("first-product-written-into-the-input", "lindblad.py",
           "other = np.empty_like(cur)",
           "other = rho",
           (BUFFERS + "test_input_is_left_untouched_and_may_be_read_only[lone]",
            BUFFERS + "test_input_is_left_untouched_and_may_be_read_only[stack]")),
    # an F-ordered input keeps its layout: the flat views become copies
    # that the products write into and nothing reads back
    Mutant("input-copied-in-its-own-layout", "lindblad.py",
           'np.array(rho, dtype=complex, order="C")',
           "np.array(rho, dtype=complex)",
           (BUFFERS + "test_input_layout_does_not_matter[lone]",
            BUFFERS + "test_input_layout_does_not_matter[stack]")),
    # 2 tau1 becomes tau1's propagator: t_even's long delays halve
    Mutant("doubled-delay-not-squared", "lindblad.py",
           "prop = half @ half",
           "prop = half",
           (DELAY + "test_chaotic_step_propagators_equal_their_direct_build",)),
    # every doubled delay runs expm again: same bits, a fourth expm per engine
    Mutant("doubled-delay-built-by-expm", "lindblad.py",
           "elif (half := self._cache.get(key / 2)) is not None",
           "elif False and (half := self._cache.get(key / 2)) is not None",
           (DELAY + "test_expm_calls_per_engine",)),
    # a diagonal generator squares a cached half too, moving np.exp's bits
    Mutant("doubled-delay-squared-on-the-diagonal-path", "lindblad.py",
           "if self._diagonal is not None:\n",
           "if self._diagonal is not None and self._cache.get(key / 2) is None:\n",
           (DELAY + "test_chaotic_step_propagators_equal_their_direct_build",)),
    # the Pade approximant squared once too few: exp(G t / 2)
    Mutant("expm-one-squaring-short", "lindblad.py",
           "for _ in range(squarings):",
           "for _ in range(squarings - 1):",
           (DELAY + "test_expm_equals_scipy_byte_for_byte",)),
    # duration 0 goes through the Pade kernels: the identity, with other signed zeros
    Mutant("expm-diagonal-branch-dropped", "lindblad.py",
           "if np.count_nonzero(a) == np.count_nonzero(a.diagonal()):",
           "if False:",
           (DELAY + "test_expm_equals_scipy_byte_for_byte",)),
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
