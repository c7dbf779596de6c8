import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from nmrbaker import chaos, lindblad, nmr, qstate
from nmrbaker.chaos import ExperimentConfig


@pytest.fixture(scope="module")
def fig2_chaotic_ensemble():
    return chaos.history_ensemble(
        ExperimentConfig.preset("fig5", map_variant="chaotic"), 3
    )


@pytest.fixture(scope="module")
def fig2_regular_ensemble():
    return chaos.history_ensemble(
        ExperimentConfig.preset("fig5", map_variant="regular"), 3
    )


@pytest.fixture(scope="module")
def fig2_chaotic_table(fig2_chaotic_ensemble):
    return chaos.subset_entropies(fig2_chaotic_ensemble)


@pytest.fixture(scope="module")
def fig2_regular_table(fig2_regular_ensemble):
    return chaos.subset_entropies(fig2_regular_ensemble)


@pytest.fixture(scope="module")
def chaotic_result():
    return chaos.hypersensitivity_experiment(
        ExperimentConfig.preset("fig5", map_variant="chaotic")
    )


@pytest.fixture(scope="module")
def regular_result():
    return chaos.hypersensitivity_experiment(
        ExperimentConfig.preset("fig5", map_variant="regular")
    )


def basis_projectors(n=8):
    return [np.diag([1.0 + 0j if i == k else 0 for i in range(n)]) for k in range(n)]


def reference_history_ensemble(config, n_steps):
    """Every history evolved from the start on its own: 2**n * n steps."""
    engine = config.engine()
    seq_for = chaos._step_sequences(config)
    kicks = [lindblad.perturbation_unitary(chaos._perturbed_spin(config, n))
             for n in range(1, n_steps + 1)]
    out = []
    for idx in range(2**n_steps):
        rho = chaos.initial_density()
        for n in range(1, n_steps + 1):
            rho = lindblad.run_sequence(rho, seq_for(n), engine)
            if (idx >> (n_steps - n)) & 1:
                k = kicks[n - 1]
                rho = k @ rho @ k.conj().T
        out.append(rho)
    return out


def seed_draw(n, n_groups, seed):
    """The seed members a restart draws, in group order."""
    return tuple(np.random.default_rng(seed).choice(n, size=n_groups, replace=False).tolist())


def reference_greedy_grouping(rhos, n_groups, seed):
    """Greedy clustering with every distance taken from js_distance."""
    rhos = list(rhos)
    n = len(rhos)
    seeds = np.random.default_rng(seed).choice(n, size=n_groups, replace=False)
    assignment = [-1] * n
    sums, counts = [], []
    for g, idx in enumerate(seeds):
        assignment[idx] = g
        sums.append(rhos[idx].copy())
        counts.append(1)
    for idx in range(n):
        if assignment[idx] >= 0:
            continue
        dists = [chaos.js_distance(sums[g] / counts[g], rhos[idx]) for g in range(n_groups)]
        g = int(np.argmin(dists))
        assignment[idx] = g
        sums[g] += rhos[idx]
        counts[g] += 1
    return assignment


class TestConfig:
    def test_fig2_preset_noise(self):
        cfg = ExperimentConfig.preset("fig2")
        assert (cfg.inv_gamma_h, cfg.inv_gamma_c1, cfg.inv_gamma_c2) == (4.0, 0.7, 0.4)
        assert cfg.steps == 6 and not cfg.artificial_perturbation

    def test_fig3_preset_noise(self):
        cfg = ExperimentConfig.preset("fig3")
        assert (cfg.inv_gamma_h, cfg.inv_gamma_c1, cfg.inv_gamma_c2) == (10.0, 10.0, 0.2)

    def test_fig4_preset_has_perturbation(self):
        cfg = ExperimentConfig.preset("fig4")
        assert cfg.artificial_perturbation
        assert (cfg.inv_gamma_h, cfg.inv_gamma_c1, cfg.inv_gamma_c2) == (10.0, 10.0, 10.0)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.preset("fig9")

    def test_overrides(self):
        cfg = ExperimentConfig.preset("fig2", steps=3, map_variant="regular")
        assert cfg.steps == 3 and cfg.map_variant == "regular"


class TestInitialState:
    def test_normalized_pure_product(self):
        psi = chaos.initial_state()
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        rho = chaos.initial_density()
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(0.0, abs=1e-12)

    def test_every_spin_along_plus_y(self):
        rho = chaos.initial_density()
        y = qstate.PAULI_Y
        for spin in ("H", "C1", "C2"):
            op = qstate.embed(y, [spin], ("H", "C1", "C2"))
            assert np.trace(op @ rho).real == pytest.approx(1.0)


class TestEntropyExperiment:
    def test_starts_at_zero_and_stays_below_three(self):
        series = chaos.entropy_experiment(ExperimentConfig.preset("fig2", steps=4))
        assert series[0] == (0, pytest.approx(0.0, abs=1e-10))
        assert all(s <= 3.0 + 1e-9 for _, s in series)
        assert [n for n, _ in series] == [0, 1, 2, 3, 4]

    def test_monotone_for_unital_channel_without_noise(self):
        cfg = ExperimentConfig.preset(
            "fig4",
            map_variant="regular",
            inv_gamma_h=math.inf,
            inv_gamma_c1=math.inf,
            inv_gamma_c2=math.inf,
        )
        series = chaos.entropy_experiment(cfg)
        values = [s for _, s in series]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9

    def test_deterministic(self):
        cfg = ExperimentConfig.preset("fig2", steps=3)
        a = chaos.entropy_experiment(cfg)
        b = chaos.entropy_experiment(cfg)
        assert a == b


class TestHistoryEnsemble:
    def test_three_steps_give_eight_states(self, fig2_chaotic_ensemble):
        assert len(fig2_chaotic_ensemble) == 8
        for rho in fig2_chaotic_ensemble:
            qstate.check_density_matrix(rho)

    def test_all_zero_history_is_unperturbed_run(self, fig2_chaotic_ensemble):
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic", steps=3)
        series = chaos.entropy_experiment(cfg)
        unperturbed_entropy = series[-1][1]
        s = qstate.von_neumann_entropy_bits(fig2_chaotic_ensemble[0])
        assert s == pytest.approx(unperturbed_entropy, abs=1e-12)

    def test_identity_perturbation_collapses_ensemble(self, monkeypatch):
        monkeypatch.setattr(
            chaos, "perturbation_unitary", lambda spin: np.eye(8, dtype=complex)
        )
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic")
        rhos = chaos.history_ensemble(cfg, 2)
        for rho in rhos[1:]:
            np.testing.assert_allclose(rho, rhos[0], atol=1e-12)
        s_bar_max = chaos.subset_entropies(rhos)[-1]
        assert s_bar_max == pytest.approx(
            qstate.von_neumann_entropy_bits(rhos[0]), abs=1e-12
        )

    def test_too_many_steps_rejected(self):
        with pytest.raises(ValueError):
            chaos.history_ensemble(ExperimentConfig.preset("fig5"), 7)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_too_few_steps_rejected(self, n_steps):
        with pytest.raises(ValueError):
            chaos.history_ensemble(ExperimentConfig.preset("fig5"), n_steps)

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_shared_prefixes_match_separate_histories(self, variant, monkeypatch):
        cfg = ExperimentConfig.preset("fig5", map_variant=variant)
        expected = reference_history_ensemble(cfg, 3)
        calls = []

        def counting(*args):
            calls.append(1)
            return lindblad.run_sequence(*args)

        monkeypatch.setattr(chaos, "run_sequence", counting)
        rhos = chaos.history_ensemble(cfg, 3)
        # one step application per distinct state before each step: 1 + 2 + 4
        assert len(calls) == 7
        assert len(rhos) == len(expected) == 8
        for rho, ref in zip(rhos, expected):
            assert np.array_equal(rho, ref)


class TestStepPathLiftsNothing:
    """Every operator a map step uses was lifted to the register at import:
    with ``qstate.embed`` raising, the experiments return exactly what they
    return unpatched."""

    CONFIGS = [ExperimentConfig.preset("fig4", map_variant=m, hamiltonian=h)
               for m in chaos.MAP_VARIANTS for h in ("noxy", "full")]

    @staticmethod
    def refuse_embed(monkeypatch):
        def refuse(*args):
            raise AssertionError("qstate.embed called on the step path")

        monkeypatch.setattr(qstate, "embed", refuse)
        with pytest.raises(AssertionError):  # a per-step lift would hit the patch
            oracles.embedded_rotation(nmr.rot_x(nmr.SPIN_H, 1.0))

    def test_entropy_experiment(self, monkeypatch):
        assert all(cfg.artificial_perturbation for cfg in self.CONFIGS)
        want = [chaos.entropy_experiment(cfg) for cfg in self.CONFIGS]
        self.refuse_embed(monkeypatch)
        assert [chaos.entropy_experiment(cfg) for cfg in self.CONFIGS] == want

    def test_history_ensemble(self, monkeypatch):
        want = [chaos.history_ensemble(cfg, 2) for cfg in self.CONFIGS]
        self.refuse_embed(monkeypatch)
        for cfg, states in zip(self.CONFIGS, want):
            got = chaos.history_ensemble(cfg, 2)
            assert len(got) == len(states) and all(map(np.array_equal, got, states))


class TestAverageRho:
    # every subset_entropies entry is the entropy of the members' mean
    def test_identical_states_average_to_themselves(self):
        rho = chaos.initial_density()
        table = chaos.subset_entropies([rho, rho, rho])
        assert np.all(table[1:] == qstate.von_neumann_entropy_bits(rho))

    def test_unit_trace(self):
        # each subset is averaged, not summed: k orthogonal pure states
        # mix to log2(k) bits
        table = chaos.subset_entropies(basis_projectors())
        counts = [mask.bit_count() for mask in range(1, 256)]
        np.testing.assert_allclose(table[1:], np.log2(counts), rtol=0, atol=1e-9)

    def test_chaotic_s_bar_max_anchor(self, fig2_chaotic_table):
        assert 2.42 <= fig2_chaotic_table[-1] <= 2.92

    def test_mixing_never_below_mean_entropy(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        # concavity: S(average) >= mean of the individual entropies
        mean_individual = np.mean(
            [qstate.von_neumann_entropy_bits(r) for r in fig2_chaotic_ensemble]
        )
        assert fig2_chaotic_table[-1] >= mean_individual - 1e-12

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            chaos.subset_entropies([])


class TestSubsetEntropies:
    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError):
            chaos.subset_entropies([np.eye(2) / 2, np.eye(4) / 4])

    def test_members_summed_in_ascending_order(self, fig2_regular_ensemble):
        # the order a per-group average adds its members; the greedy
        # Pareto filter and the golden outputs depend on it at round-off
        table = chaos.subset_entropies(fig2_regular_ensemble)
        for mask in range(1, 256):
            members = [fig2_regular_ensemble[i] for i in range(8) if mask >> i & 1]
            expected = qstate.von_neumann_entropy_bits(sum(members) / len(members))
            assert table[mask] == expected, mask


class TestGroupingStats:
    def test_single_group(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        stats = chaos.grouping_stats([0] * 8, fig2_chaotic_table)
        assert stats.information == pytest.approx(0.0)
        assert math.copysign(1.0, stats.information) == 1.0
        s_bar_max = qstate.von_neumann_entropy_bits(sum(fig2_chaotic_ensemble) / 8)
        assert stats.mean_conditional_entropy == pytest.approx(s_bar_max, abs=1e-12)

    def test_even_splits_give_integer_information(self, fig2_chaotic_table):
        stats = chaos.grouping_stats([0, 0, 0, 0, 1, 1, 1, 1], fig2_chaotic_table)
        assert stats.information == pytest.approx(1.0)
        stats = chaos.grouping_stats([0, 0, 1, 1, 2, 2, 3, 3], fig2_chaotic_table)
        assert stats.information == pytest.approx(2.0)

    def test_singletons(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        stats = chaos.grouping_stats(list(range(8)), fig2_chaotic_table)
        assert stats.information == pytest.approx(3.0)
        mean_individual = np.mean(
            [qstate.von_neumann_entropy_bits(r) for r in fig2_chaotic_ensemble]
        )
        assert stats.mean_conditional_entropy == pytest.approx(mean_individual)

    def test_wrong_length_rejected(self, fig2_chaotic_table, monkeypatch):
        def forbidden(n):
            raise AssertionError("partition layout built for a rejected assignment")

        monkeypatch.setattr(chaos, "_partition_layout", forbidden)
        for assignment, table in (([0, 1], fig2_chaotic_table), ([0] * 9, fig2_chaotic_table),
                                  ([], fig2_chaotic_table), ([], []),
                                  ([0] * 11, np.zeros(2**11))):  # past MAX_SCAN_STATES
            with pytest.raises(ValueError):
                chaos.grouping_stats(assignment, table)


class TestJsDistance:
    def test_self_distance_zero(self):
        rho = chaos.initial_density()
        assert chaos.js_distance(rho, rho) == 0.0

    def test_symmetric(self, fig2_chaotic_ensemble):
        a, b = fig2_chaotic_ensemble[0], fig2_chaotic_ensemble[5]
        assert chaos.js_distance(a, b) == pytest.approx(chaos.js_distance(b, a))

    def test_orthogonal_pure_states_one_bit(self):
        p = basis_projectors()
        assert chaos.js_distance(p[0], p[1]) == pytest.approx(1.0)

    def test_nonnegative_on_ensemble(self, fig2_chaotic_ensemble):
        for a in fig2_chaotic_ensemble:
            for b in fig2_chaotic_ensemble:
                assert chaos.js_distance(a, b) >= 0.0


class TestGreedyGrouping:
    def test_all_singletons_when_groups_equal_size(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        for seed in range(5):
            assignment = chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, seed_draw(8, 8, seed))
            assert sorted(assignment) == list(range(8))

    def test_single_group(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        assignment = chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, (3,))
        assert set(assignment) == {0}

    def test_deterministic_for_fixed_seed(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        a = chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, (5, 0, 2))
        b = chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, (5, 0, 2))
        assert a == b

    def test_group_count_validated(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, tuple(range(9)))

    @pytest.mark.parametrize("seeds", [(), (1, 1), (0, 8), (-1, 2)])
    def test_seed_members_validated(self, seeds, fig2_chaotic_ensemble, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, seeds)

    def test_table_size_validated(self, fig2_chaotic_ensemble, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_grouping(fig2_chaotic_ensemble[:7], fig2_chaotic_table, (0, 1, 2))

    @pytest.mark.parametrize("seeds", [(3,), (5, 0, 2), tuple(range(7)), tuple(range(8))])
    def test_group_entropy_calls(self, seeds, monkeypatch, fig2_chaotic_ensemble,
                                 fig2_chaotic_table):
        # a group's entropy is recomputed after each placement but the last,
        # whose value nothing reads: n - k - 1 calls for n states, k groups
        calls = []
        entropy = qstate.von_neumann_entropy_bits
        monkeypatch.setattr(qstate, "von_neumann_entropy_bits",
                            lambda rho: calls.append(rho) or entropy(rho))
        chaos.greedy_grouping(fig2_chaotic_ensemble, fig2_chaotic_table, seeds)
        n, k = len(fig2_chaotic_ensemble), len(seeds)
        assert len(calls) == (n - k - 1 if n > k else 0)

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_matches_js_distance_reference(self, variant, request):
        rhos = request.getfixturevalue(f"fig2_{variant}_ensemble")
        table = request.getfixturevalue(f"fig2_{variant}_table")
        # the Pareto points of all GREEDY_RESTARTS reference runs per group count
        points = []
        for n_groups in range(1, 9):
            for trial in range(chaos.GREEDY_RESTARTS):
                seed = [0, n_groups, trial]
                reference = reference_greedy_grouping(rhos, n_groups, seed)
                assert (chaos.greedy_grouping(rhos, table, seed_draw(8, n_groups, seed))
                        == reference), seed
                s_bar, information = oracles._score(reference, table)
                points.append((table[-1] - s_bar, information))
        result = request.getfixturevalue(f"{variant}_result")
        assert result.greedy_points == chaos._pareto_points(points)

    @pytest.mark.parametrize("hamiltonian", ["noxy", "full"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_shared_memo_changes_no_assignment(self, variant, hamiltonian):
        # all 512 draws of a fig5 job, in the job's order, through one memo
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        table = chaos.subset_entropies(rhos)
        memo, memo_free = {}, {}
        for n_groups in range(1, 9):
            for trial in range(chaos.GREEDY_RESTARTS):
                seed = [cfg.seed, n_groups, trial]
                draw = seed_draw(8, n_groups, seed)
                if draw not in memo_free:
                    memo_free[draw] = chaos.greedy_grouping(rhos, table, draw)
                    assert memo_free[draw] == reference_greedy_grouping(rhos, n_groups, seed), seed
                assert chaos.greedy_grouping(rhos, table, draw, memo) == memo_free[draw], seed
        # each entry is the entropy its key names: the seed's state plus the
        # other members in ascending order, averaged, mixed with rhos[idx]
        assert memo
        for key, entropy in memo.items():
            seed, mask = key[:2]
            total = rhos[seed]
            for i in range(8):
                if mask >> i & 1 and i != seed:
                    total = total + rhos[i]
            mean = total / mask.bit_count()
            mixed = (mean + rhos[key[2]]) / 2 if len(key) == 3 else mean
            assert entropy == qstate.von_neumann_entropy_bits(mixed), key


class TestSetPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (8, 4140)]
    )
    def test_bell_numbers(self, n, bell):
        assert sum(1 for _ in chaos.set_partitions(n)) == bell

    def test_strings_are_restricted_growth(self):
        for a in chaos.set_partitions(5):
            assert a[0] == 0
            for k in range(1, 5):
                assert a[k] <= max(a[:k]) + 1

    def test_no_duplicates(self):
        parts = list(chaos.set_partitions(6))
        assert len(parts) == len(set(parts)) == 203

    def test_layout_is_read_only(self):
        # every scan of an 8-state ensemble shares this one layout
        by_size, information, keys = chaos._partition_layout(8)
        arrays = [information, keys, *(array for group in by_size for array in group)]
        assert len(arrays) == 2 + 3 * 8
        assert np.all(np.diff(keys) > 0)
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0


class TestExhaustiveFrontier:
    def test_orthogonal_ensemble_frontier_is_diagonal(self):
        # for 8 equiprobable orthogonal pure states every partition has
        # I = delta_s exactly, so the frontier is the identity line
        curve = oracles.exhaustive_imin(basis_projectors())
        np.testing.assert_allclose(curve.i_min, curve.delta_s, atol=1e-9)
        delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(basis_projectors()))
        np.testing.assert_allclose(info, delta_s, atol=1e-9)

    def test_frontier_nondecreasing_and_bounded(self, fig2_chaotic_ensemble):
        curve = oracles.exhaustive_imin(fig2_chaotic_ensemble)
        assert np.all(np.diff(curve.i_min) >= -1e-12)
        assert np.all(curve.i_min >= curve.delta_s - 1e-12)

    def test_information_bound_on_all_partitions(self, fig2_chaotic_table):
        delta_s, info, _ = chaos.partition_scan(fig2_chaotic_table)
        assert len(info) == 4140
        assert np.all(info >= delta_s - 1e-12)

    def test_refinement_never_decreases_information(self, fig2_chaotic_table):
        # split the first group of a coarse partition and compare
        rng = np.random.default_rng(0)
        delta_s, info, s_max = chaos.partition_scan(fig2_chaotic_table)
        for _ in range(20):
            coarse = [0, 0, 0, 0, 1, 1, 1, 1]
            rng.shuffle(coarse)
            fine = list(coarse)
            first_zero = fine.index(0)
            fine[first_zero] = 2
            st_c = chaos.grouping_stats(coarse, fig2_chaotic_table)
            st_f = chaos.grouping_stats(fine, fig2_chaotic_table)
            assert st_f.information >= st_c.information - 1e-12
            assert (
                st_f.mean_conditional_entropy
                <= st_c.mean_conditional_entropy + 1e-12
            )

    def test_too_large_ensemble_rejected(self):
        with pytest.raises(ValueError):
            chaos.subset_entropies([np.eye(2) / 2] * 11)


@st.composite
def random_ensembles(draw, states=st.integers(2, 6)):
    """``states`` (2-6) density matrices of dimension 2-8 and random rank,
    A A^dag / tr."""
    k = draw(states)
    d = draw(st.integers(2, 8))
    rank = draw(st.integers(1, d))
    parts = draw(hnp.arrays(np.float64, (k, 2, d, rank), elements=st.floats(-1, 1)))
    rhos = []
    for re, im in parts:
        a = re + 1j * im
        rho = a @ a.conj().T
        trace = np.trace(rho).real
        assume(trace > 1e-3)
        rhos.append(rho / trace)
    return rhos


class TestPartitionProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_ensembles())
    def test_every_partition(self, rhos):
        k = len(rhos)
        table = chaos.subset_entropies(rhos)
        delta_s, info, s_max = chaos.partition_scan(table)
        # Holevo: the entropy a partition recovers never exceeds its cost
        assert np.all(info >= delta_s - 1e-12)
        assert np.all(delta_s >= -1e-12)
        for assignment in chaos.set_partitions(k):
            stats = chaos.grouping_stats(assignment, table)
            s_bar = info_direct = 0.0
            for g in set(assignment):
                members = [rhos[i] for i in range(k) if assignment[i] == g]
                p = len(members) / k
                s_bar += p * qstate.von_neumann_entropy_bits(np.mean(members, axis=0))
                info_direct -= p * math.log2(p)
            assert stats.mean_conditional_entropy == pytest.approx(s_bar, abs=1e-12)
            assert stats.information == pytest.approx(info_direct, abs=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_ensembles(st.sampled_from(range(1, 9))))  # every size drawn, 8 included
    def test_scan_equals_scoring_each_partition(self, rhos):
        table = chaos.subset_entropies(rhos)
        delta_s, info, s_max = chaos.partition_scan(table)
        expected_delta_s, expected_info, expected_s_max = oracles.scored_partition_scan(table)
        assert np.array_equal(delta_s, expected_delta_s)
        assert np.array_equal(info, expected_info)
        assert s_max == expected_s_max

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_lookup_equals_scoring_the_partition_alone(self, data):
        # any labels: gaps, negatives and groups first seen out of order
        rhos = data.draw(random_ensembles(st.sampled_from(range(1, 9))))
        n = len(rhos)
        labels = data.draw(st.lists(st.integers(-3, 12), min_size=n, max_size=n))
        first: dict = {}
        string = tuple(first.setdefault(g, len(first)) for g in labels)
        assert chaos._partition_position(labels) == list(chaos.set_partitions(n)).index(string)
        table = chaos.subset_entropies(rhos)
        stats = chaos.grouping_stats(labels, table)
        expected = oracles._score(labels, table)
        # float.hex tells -0.0 from 0.0
        assert ((stats.mean_conditional_entropy.hex(), stats.information.hex())
                == tuple(x.hex() for x in expected))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_ensembles())
    def test_greedy_matches_reference_and_never_beats_frontier(self, rhos):
        table = chaos.subset_entropies(rhos)
        frontier = oracles.exhaustive_imin(rhos)
        for n_groups in range(1, len(rhos) + 1):
            for trial in range(4):
                seed = [0, n_groups, trial]
                assignment = chaos.greedy_grouping(rhos, table, seed_draw(len(rhos), n_groups, seed))
                assert assignment == reference_greedy_grouping(rhos, n_groups, seed)
                stats = chaos.grouping_stats(assignment, table)
                d = table[-1] - stats.mean_conditional_entropy
                feasible = frontier.i_min[frontier.delta_s >= d - 1e-12]
                assert feasible.size
                assert stats.information >= feasible.min() - 1e-12


class TestHypersensitivityExperiment:
    def test_chaotic_anchor(self, chaotic_result):
        assert chaotic_result.s_bar_max == pytest.approx(2.67, abs=0.25)
        assert chaotic_result.s_bar_max == pytest.approx(2.67, abs=0.1)

    def test_regular_anchor(self, regular_result):
        assert regular_result.s_bar_max == pytest.approx(2.74, abs=0.25)
        assert regular_result.s_bar_max == pytest.approx(2.74, abs=0.1)

    def test_chaotic_slope(self, chaotic_result):
        assert 4.0 <= chaotic_result.slope <= 8.0

    def test_regular_one_bit_recovers_half_bit(self, fig2_regular_ensemble):
        delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(fig2_regular_ensemble))
        one_bit = delta_s[np.isclose(info, 1.0, atol=1e-9)]
        assert one_bit.max() >= 0.5

    def test_exchange_terms_shrink_the_regular_recovery(self):
        # with the XX+YY coupling kept, the kicks no longer commute with
        # the dynamics, the ensemble entropy moves to ~2.72 bits and one
        # bit of information recovers only ~0.5 bits
        cfg = ExperimentConfig.preset(
            "fig5", map_variant="regular", hamiltonian="full"
        )
        ensemble = chaos.history_ensemble(cfg, 3)
        table = chaos.subset_entropies(ensemble)
        assert table[-1] == pytest.approx(2.72, abs=0.1)
        delta_s, info, _ = chaos.partition_scan(table)
        one_bit = delta_s[np.isclose(info, 1.0, atol=1e-9)]
        assert 0.4 <= one_bit.max() <= 0.6

    def test_greedy_never_beats_exhaustive(self, chaotic_result):
        frontier = chaotic_result.frontier
        for d, i in chaotic_result.greedy_points:
            feasible = frontier.i_min[frontier.delta_s >= d - 1e-12]
            if feasible.size:
                assert i >= feasible.min() - 1e-12

    def test_partition_count(self, chaotic_result):
        assert chaotic_result.n_partitions == 4140

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_too_few_steps_rejected_before_work(self, n_steps, monkeypatch):
        def forbidden(cfg, n_steps):
            raise AssertionError("history ensemble built for a rejected step count")

        monkeypatch.setattr(chaos, "history_ensemble", forbidden)
        with pytest.raises(ValueError):
            chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5"), n_steps)

    def test_one_greedy_run_per_distinct_ordered_draw(self, monkeypatch):
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", seed=5)
        draws = {seed_draw(8, n_groups, [cfg.seed, n_groups, trial])
                 for n_groups in range(1, 9) for trial in range(chaos.GREEDY_RESTARTS)}
        seen = []
        original = chaos.greedy_grouping

        def counting(rhos, entropies, seeds, memo=None):
            seen.append(tuple(seeds))
            return original(rhos, entropies, seeds, memo)

        monkeypatch.setattr(chaos, "greedy_grouping", counting)
        chaos.hypersensitivity_experiment(cfg)
        assert len(draws) < 8 * chaos.GREEDY_RESTARTS
        assert len(seen) == len(set(seen)) == len(draws)
        assert set(seen) == draws

    def test_greedy_diagonalises_once_per_memo_key(self, monkeypatch):
        memos, diagonalised, inside = [], [], []
        greedy, eigvalsh = chaos.greedy_grouping, np.linalg.eigvalsh

        def counting_eigvalsh(a):
            if inside:
                diagonalised.append(math.prod(np.shape(a)[:-2]))
            return eigvalsh(a)

        def counting_greedy(rhos, entropies, seeds, memo=None):
            memos.append(memo)
            inside.append(True)
            try:
                return greedy(rhos, entropies, seeds, memo)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(chaos, "greedy_grouping", counting_greedy)
        chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5"))
        # one memo for the whole job, and no key diagonalised twice
        assert memos and all(memo is memos[0] for memo in memos)
        assert 0 < sum(diagonalised) <= len(memos[0])

    @pytest.mark.parametrize("hamiltonian", ["noxy", "full"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_greedy_points_are_read_from_the_scan(self, variant, hamiltonian, monkeypatch):
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian)
        expected = chaos.hypersensitivity_experiment(cfg)

        def forbidden(assignment, entropies):
            raise AssertionError("a greedy grouping was scored outside the partition scan")

        monkeypatch.setattr(chaos, "grouping_stats", forbidden)
        result = chaos.hypersensitivity_experiment(cfg)
        for field in dataclasses.fields(chaos.HyperResult):
            a, b = getattr(result, field.name), getattr(expected, field.name)
            if field.name == "frontier":
                assert np.array_equal(a.delta_s, b.delta_s) and np.array_equal(a.i_min, b.i_min)
            else:
                assert a == b, field.name

    def test_deterministic(self):
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", seed=5)
        a = chaos.hypersensitivity_experiment(cfg)
        b = chaos.hypersensitivity_experiment(cfg)
        assert a.s_bar_max == b.s_bar_max
        assert a.greedy_points == b.greedy_points
        np.testing.assert_array_equal(a.frontier.i_min, b.frontier.i_min)
