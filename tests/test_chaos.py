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
def fig2_chaotic_means(fig2_chaotic_ensemble):
    return chaos.subset_means(fig2_chaotic_ensemble)


@pytest.fixture(scope="module")
def fig2_regular_means(fig2_regular_ensemble):
    return chaos.subset_means(fig2_regular_ensemble)


@pytest.fixture(scope="module")
def fig2_chaotic_table(fig2_chaotic_means):
    return chaos.subset_entropies(fig2_chaotic_means)


@pytest.fixture(scope="module")
def fig2_regular_table(fig2_regular_means):
    return chaos.subset_entropies(fig2_regular_means)


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
    steps = chaos._steps(config, n_steps)
    out = []
    for idx in range(2**n_steps):
        rho = chaos.initial_density()
        for n, (program, z) in enumerate(steps, start=1):
            rho = lindblad.run_sequence(rho, program, engine)
            if (idx >> (n_steps - n)) & 1:
                k = 1j * z  # the kick exp(i*pi*Z/2)
                rho = k @ rho @ k.conj().T
        out.append(rho)
    return out


def seed_draw(n, n_groups, seed):
    """The seed members a restart draws, in group order."""
    return tuple(np.random.default_rng(seed).choice(n, size=n_groups, replace=False).tolist())


def memo_keys(draw, assignment) -> set:
    """The memo entries one greedy run reads, from its draw and result:
    ``(mask, idx)`` for each group's mixture with each placed state."""
    masks = [1 << seed for seed in draw]
    keys = set()
    for idx in range(len(assignment)):
        if idx not in draw:
            keys |= {(mask, idx) for mask in masks}
            masks[assignment[idx]] |= 1 << idx
    return keys


def hex_points(points):
    """(delta_s, I) points as float.hex pairs, which tell -0.0 from 0.0."""
    return [(d.hex(), i.hex()) for d, i in points]


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

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("map_variant", "bogus", "unknown map variant 'bogus'", id="map_variant"),
        pytest.param("steps", 0, "at least one step", id="steps=0"),
        pytest.param("steps", -1, "at least one step", id="steps=-1"),
    ])
    def test_bad_field_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})

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
            op = qstate.embed(y, spin, ("H", "C1", "C2"))
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
        steps = chaos._steps
        monkeypatch.setattr(chaos, "_steps", lambda config, n_steps: [
            (program, np.eye(8, dtype=complex)) for program, _ in steps(config, n_steps)])
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic")
        rhos = chaos.history_ensemble(cfg, 2)
        for rho in rhos[1:]:
            np.testing.assert_allclose(rho, rhos[0], atol=1e-12)
        s_bar_max = chaos.subset_entropies(chaos.subset_means(rhos))[-1]
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


class TestSteps:
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_schedule(self, variant):
        cfg = ExperimentConfig.preset("fig2", map_variant=variant)
        model = cfg.model()
        if variant == "chaotic":
            want = [(nmr.t_odd(model), nmr.SPIN_H), (nmr.t_even(model), nmr.SPIN_C2)] * 2
        else:
            want = [(nmr.t_regular(model), nmr.SPIN_H)] * 4
        steps = chaos._steps(cfg, 4)
        assert [program for program, _ in steps] == [program for program, _ in want]
        for (_, z), (_, spin) in zip(steps, want):
            assert np.array_equal(z, qstate.embed(qstate.PAULI_Z, spin, nmr.SPINS))
            assert np.array_equal(z @ z, np.eye(8))

    @pytest.mark.parametrize("ensemble", ["fig2_chaotic_ensemble", "fig2_regular_ensemble"],
                             ids=chaos.MAP_VARIANTS)
    def test_z_kick_equals_i_z_conjugation(self, ensemble, request):
        # Z rho Z is the kick exp(i*pi*Z/2) = i*Z with its phase cancelled,
        # bit for bit, on every spin of every state of a fig5 ensemble
        for rho in request.getfixturevalue(ensemble):
            for spin in nmr.SPINS:
                z = nmr.LIFTED_PAULI["Z", spin]
                conjugated = (1j * z) @ rho @ (1j * z).conj().T
                assert np.array_equal(z @ rho @ z, conjugated)
                assert np.array_equal(chaos._averaged_kick(rho, z), (rho + conjugated) / 2)


class TestAveragedKick:
    Z_H, Z_C2 = nmr.LIFTED_PAULI["Z", nmr.SPIN_H], nmr.LIFTED_PAULI["Z", nmr.SPIN_C2]

    def test_idempotent(self):
        once = chaos._averaged_kick(chaos.initial_density(), self.Z_H)
        np.testing.assert_array_equal(chaos._averaged_kick(once, self.Z_H), once)

    def test_kills_cross_sector_elements(self):
        rho = chaos.initial_density()
        out = chaos._averaged_kick(rho, self.Z_H)
        np.testing.assert_allclose(out[:4, 4:], 0, atol=1e-15)
        np.testing.assert_allclose(out[:4, :4], rho[:4, :4], atol=1e-15)

    def test_entropy_never_decreases(self):
        rho = chaos.initial_density()
        s0 = qstate.von_neumann_entropy_bits(rho)
        s1 = qstate.von_neumann_entropy_bits(chaos._averaged_kick(rho, self.Z_C2))
        assert s1 >= s0 - 1e-12

    def test_commutes_with_diagonal_unitary(self):
        rho = chaos.initial_density()
        d = np.diag(np.exp(1j * np.arange(8)))
        np.testing.assert_allclose(chaos._averaged_kick(d @ rho @ d.conj().T, self.Z_H),
                                   d @ chaos._averaged_kick(rho, self.Z_H) @ d.conj().T,
                                   atol=1e-15)


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
        table = chaos.subset_entropies(chaos.subset_means([rho, rho, rho]))
        assert np.all(table[1:] == qstate.von_neumann_entropy_bits(rho))

    def test_unit_trace(self):
        # each subset is averaged, not summed: k orthogonal pure states
        # mix to log2(k) bits
        table = chaos.subset_entropies(chaos.subset_means(basis_projectors()))
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
            chaos.subset_means([])


class TestSubsetEntropies:
    def test_mixed_shapes_rejected(self):
        # the last two would broadcast into the table without the check
        for odd in (np.eye(4) / 4, np.full(2, 0.5), np.full((1, 2), 0.5)):
            with pytest.raises(ValueError, match="share a dimension"):
                chaos.subset_means([np.eye(2) / 2, odd])

    @pytest.mark.parametrize("entries", [0, 1, 3, 5, 2**11])
    def test_table_length_validated(self, entries):
        with pytest.raises(ValueError):
            chaos.subset_entropies(np.zeros((entries, 2, 2)))

    def test_members_summed_in_ascending_order(self, fig2_regular_ensemble):
        # the order a per-group average adds its members; the greedy
        # Pareto filter and the golden outputs depend on it at round-off
        means = chaos.subset_means(fig2_regular_ensemble)
        table = chaos.subset_entropies(means)
        assert not means[0].any()
        for mask in range(1, 256):
            members = [fig2_regular_ensemble[i] for i in range(8) if mask >> i & 1]
            mean = sum(members) / len(members)
            assert np.array_equal(means[mask], mean), mask
            assert table[mask] == qstate.von_neumann_entropy_bits(mean), mask


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
        for table in ([], np.zeros(1), np.zeros(5), np.zeros(300), np.zeros(2**11)):
            with pytest.raises(ValueError):
                chaos.partition_scan(table)


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
    def test_all_singletons_when_groups_equal_size(self, fig2_chaotic_means, fig2_chaotic_table):
        for seed in range(5):
            assignment = chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, seed_draw(8, 8, seed))
            assert sorted(assignment) == list(range(8))

    def test_single_group(self, fig2_chaotic_means, fig2_chaotic_table):
        assignment = chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, (3,))
        assert set(assignment) == {0}

    def test_deterministic_for_fixed_seed(self, fig2_chaotic_means, fig2_chaotic_table):
        a = chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, (5, 0, 2))
        b = chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, (5, 0, 2))
        assert a == b

    def test_group_count_validated(self, fig2_chaotic_means, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, tuple(range(9)))

    @pytest.mark.parametrize("seeds", [(), (1, 1), (0, 8), (-1, 2)])
    def test_seed_members_validated(self, seeds, fig2_chaotic_means, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, seeds)

    def test_table_size_validated(self, fig2_chaotic_ensemble, fig2_chaotic_means, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_grouping(chaos.subset_means(fig2_chaotic_ensemble[:7]), fig2_chaotic_table, (0, 1, 2))
        with pytest.raises(ValueError):
            chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table[:128], (0, 1, 2))

    @pytest.mark.parametrize("draws", [[(0, 1), (2, 2)], [(0, 1), (2, 8)], [(0, 1), (-1, 2)],
                                       [(0, 1), (2,)], [(0, 1.0)], [()], []])
    def test_every_draw_validated(self, draws, fig2_chaotic_means, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_groupings(fig2_chaotic_means, fig2_chaotic_table, draws)

    @pytest.mark.parametrize("table", [np.full((256, 9), np.nan), np.full((8, 256, 9), np.nan),
                                       np.full((256, 16), np.nan)[:, ::2]])
    def test_memo_shape_validated(self, table, fig2_chaotic_means, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_groupings(fig2_chaotic_means, fig2_chaotic_table, [(0, 1)], table)

    @pytest.mark.parametrize("hamiltonian", ["noxy", "simplified", "full"])
    def test_lockstep_rows_on_the_regular_map(self, hamiltonian):
        # every member is bitwise rho or Z_H rho Z_H, so distances tie exactly
        # and the first of equal distances decides
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        rng = np.random.default_rng(7)
        memo = np.full((2**8, 8), np.nan)
        for n_groups in range(1, 9):
            draws = [tuple(rng.permutation(8)[:n_groups].tolist()) for _ in range(24)]
            rows = chaos.greedy_groupings(means, table, draws, memo)
            assert rows.tolist() == [oracles.reference_greedy_grouping(rhos, draw) for draw in draws]

    @pytest.mark.parametrize("seeds", [(3,), (5, 0, 2), tuple(range(7)), tuple(range(8))])
    def test_group_entropy_calls(self, seeds, monkeypatch, fig2_chaotic_means, fig2_chaotic_table):
        # a group's entropy is read from the subset table, so one run fills
        # one mixture per group and placement, k (n - k) entries for n states
        # and k groups, and diagonalises each once
        diagonalised = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: diagonalised.append(len(a)) or eigvalsh(a))
        n, k = 8, len(seeds)
        table = np.full((2**n, n), np.nan)
        chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, seeds, table)
        assert sum(diagonalised) == np.count_nonzero(~np.isnan(table)) == k * (n - k)

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_matches_js_distance_reference(self, variant, request):
        rhos = request.getfixturevalue(f"fig2_{variant}_ensemble")
        means = request.getfixturevalue(f"fig2_{variant}_means")
        table = request.getfixturevalue(f"fig2_{variant}_table")
        # the Pareto points of all GREEDY_RESTARTS reference runs per group count
        points = []
        for n_groups in range(1, 9):
            for trial in range(chaos.GREEDY_RESTARTS):
                seed = [0, n_groups, trial]
                draw = seed_draw(8, n_groups, seed)
                reference = oracles.reference_greedy_grouping(rhos, draw)
                assert chaos.greedy_grouping(means, table, draw) == reference, seed
                s_bar, information = oracles._score(reference, table)
                points.append((table[-1] - s_bar, information))
        result = request.getfixturevalue(f"{variant}_result")
        assert result.greedy_points == chaos._pareto_points(points)

    @pytest.mark.parametrize("hamiltonian", ["noxy", "full"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_shared_memo_changes_no_assignment(self, variant, hamiltonian):
        # all 512 draws of group counts 1 to 8: each count's distinct draws
        # in lockstep, in draw order, every count through one table
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        memo = np.full((2**8, 8), np.nan)
        for n_groups in range(1, 9):
            draws = list(dict.fromkeys(seed_draw(8, n_groups, [cfg.seed, n_groups, trial])
                                       for trial in range(chaos.GREEDY_RESTARTS)))
            rows = chaos.greedy_groupings(means, table, draws, memo).tolist()
            for draw, row in zip(draws, rows):
                memo_free = chaos.greedy_grouping(means, table, draw)
                assert memo_free == oracles.reference_greedy_grouping(rhos, draw), draw
                assert row == memo_free, draw
        # each filled entry is the entropy its index names: the members of
        # mask summed in ascending order, averaged, mixed with rhos[idx]
        filled = np.argwhere(~np.isnan(memo))
        assert len(filled)
        for mask, idx in filled.tolist():
            assert not mask >> idx & 1, (mask, idx)
            first, *rest = [rhos[i] for i in range(8) if mask >> i & 1]
            total = first
            for rho in rest:
                total = total + rho
            expected = qstate.von_neumann_entropy_bits((total / mask.bit_count() + rhos[idx]) / 2)
            assert float(memo[mask, idx]).hex() == expected.hex(), (mask, idx)


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
        delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(chaos.subset_means(basis_projectors())))
        np.testing.assert_allclose(info, delta_s, atol=1e-9)

    def test_near_equal_delta_s_chain_is_one_point(self):
        # a point starts where delta_s falls by more than 1e-12 from the one
        # before, so a chain of gaps under 1e-12 is one point even where it
        # spans more than 1e-12; the point keeps the chain's largest delta_s
        # and the least I over it and everything above
        delta_s = np.array([1.0, 0.0, 1.0 + 1.6e-12, 2.0, 1.0 + 0.8e-12])
        info = np.array([0.5, 0.0, 0.9, 1.5, 0.7])
        curve = chaos._frontier_from_scan(delta_s, info)
        assert curve.delta_s.tolist() == [0.0, 1.0 + 1.6e-12, 2.0]
        assert curve.i_min.tolist() == [0.0, 0.5, 1.5]

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
            chaos.subset_means([np.eye(2) / 2] * 11)


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


@st.composite
def parity_ensembles(draw):
    """2, 4 or 8 members, each bitwise rho or Z rho Z by the parity of its
    index (Z a diagonal of signs), as in the regular map's history
    ensemble: greedy distances tie exactly."""
    rho = draw(random_ensembles(st.just(1)))[0]
    z = np.diag(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(rho), max_size=len(rho))))
    classes = rho, z @ rho @ z
    return [classes[i.bit_count() % 2] for i in range(draw(st.sampled_from([2, 4, 8])))]


@st.composite
def draw_sets(draw, n):
    """Ordered draws of one group count of ``n`` members, repeats allowed."""
    k = draw(st.integers(1, n))
    return draw(st.lists(st.permutations(range(n)).map(lambda p: tuple(p[:k])), min_size=1, max_size=12))


class TestPartitionProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_ensembles())
    def test_every_partition(self, rhos):
        k = len(rhos)
        table = chaos.subset_entropies(chaos.subset_means(rhos))
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
        table = chaos.subset_entropies(chaos.subset_means(rhos))
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
        string = oracles.first_appearance(labels)
        assert chaos._partition_positions([labels])[0] == list(chaos.set_partitions(n)).index(string)
        table = chaos.subset_entropies(chaos.subset_means(rhos))
        stats = chaos.grouping_stats(labels, table)
        expected = oracles._score(labels, table)
        # float.hex tells -0.0 from 0.0
        assert ((stats.mean_conditional_entropy.hex(), stats.information.hex())
                == tuple(x.hex() for x in expected))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_positions_equal_the_set_partitions_index(self, data):
        n = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(st.lists(st.integers(-3, 12), min_size=n, max_size=n),
                                  min_size=1, max_size=6))
        # renaming the labels by any bijection moves no row
        values = sorted({g for row in rows for g in row})
        rename = dict(zip(values, data.draw(st.permutations(values))))
        strings = list(chaos.set_partitions(n))
        expected = [strings.index(oracles.first_appearance(row)) for row in rows]
        assert chaos._partition_positions(rows).tolist() == expected
        assert chaos._partition_positions([[rename[g] for g in row] for row in rows]).tolist() == expected

    @pytest.mark.parametrize("ensembles", [random_ensembles(), parity_ensembles()], ids=["random", "parity"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_lockstep_rows_equal_one_draw_at_a_time(self, ensembles, data):
        rhos = data.draw(ensembles)
        n = len(rhos)
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        memo = np.full((2**n, n), np.nan)
        for _ in range(2):  # two draw sets through one memo
            draws = data.draw(draw_sets(n))
            rows = chaos.greedy_groupings(means, table, draws, memo)
            assert rows.tolist() == [oracles.reference_greedy_grouping(rhos, draw) for draw in draws]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(random_ensembles())
    def test_greedy_matches_reference_and_never_beats_frontier(self, rhos):
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        frontier = oracles.exhaustive_imin(rhos)
        for n_groups in range(1, len(rhos) + 1):
            for trial in range(4):
                seed = [0, n_groups, trial]
                draw = seed_draw(len(rhos), n_groups, seed)
                assignment = chaos.greedy_grouping(means, table, draw)
                assert assignment == oracles.reference_greedy_grouping(rhos, draw)
                stats = chaos.grouping_stats(assignment, table)
                d = table[-1] - stats.mean_conditional_entropy
                feasible = frontier.i_min[frontier.delta_s >= d - 1e-12]
                assert feasible.size
                assert stats.information >= feasible.min() - 1e-12


def binary_entropy(p: float) -> float:
    return -sum(x * math.log2(x) for x in (p, 1 - p) if x > 0)


class TestRegularMapClosedForm:
    # Z_H commutes with the whole regular step under every Hamiltonian:
    # t_regular pulses only C1, every drift term with H is diagonal, the
    # full exchange term couples only C1 and C2, and dephasing commutes
    # with Z conjugation

    @pytest.mark.parametrize("hamiltonian", ["noxy", "simplified"])
    @pytest.mark.parametrize("preset", sorted(chaos.PRESETS))
    def test_entropy_series(self, preset, hamiltonian):
        # a diagonal drift also commutes with the dephasing and the C1 pi
        # pulses, so only each spin's coherence decay exp(-2 Gamma n T)
        # changes the spectrum; fig4's averaged kick dephases H fully, one
        # bit from the first step on
        cfg = ExperimentConfig.preset(preset, map_variant="regular", hamiltonian=hamiltonian)
        period = nmr.t_regular(cfg.model()).total_delay
        for n, entropy in chaos.entropy_experiment(cfg):
            terms = [1.0 if cfg.artificial_perturbation and n and spin == nmr.SPIN_H
                     else binary_entropy((1 + math.exp(-2 * gamma * n * period)) / 2)
                     for spin, gamma in cfg.noise().items()]
            assert entropy == pytest.approx(sum(terms), rel=0, abs=1e-12), n

    @pytest.mark.parametrize("hamiltonian", ["noxy", "simplified", "full"])
    @pytest.mark.parametrize("preset", sorted(chaos.PRESETS))
    def test_history_members_are_two_states(self, preset, hamiltonian):
        cfg = ExperimentConfig.preset(preset, map_variant="regular", hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        z = nmr.LIFTED_PAULI["Z", nmr.SPIN_H]
        classes = rhos[0], z @ rhos[0] @ z
        for history, rho in enumerate(rhos):
            assert np.array_equal(rho, classes[history.bit_count() % 2]), history

    @pytest.mark.parametrize("hamiltonian", ["noxy", "simplified", "full"])
    def test_scan_rows_and_parity_split(self, hamiltonian):
        # a group with a fraction f of even-parity histories has the mean
        # f rho + (1 - f) Z rho Z, and the even/odd split recovers the most
        # entropy for the least information, one bit
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        z = nmr.LIFTED_PAULI["Z", nmr.SPIN_H]
        rho, kicked = rhos[0], z @ rhos[0] @ z
        delta_s, info, s_max = chaos.partition_scan(chaos.subset_entropies(chaos.subset_means(rhos)))
        parity = [history.bit_count() % 2 for history in range(8)]
        group_entropy = {(even, size): qstate.von_neumann_entropy_bits((even * rho + (size - even) * kicked) / size)
                         for size in range(1, 9) for even in range(size + 1)}
        for pos, string in enumerate(chaos.set_partitions(8)):
            members = [[i for i in range(8) if string[i] == g] for g in range(max(string) + 1)]
            s_bar = sum(len(group) / 8 * group_entropy[sum(1 - parity[i] for i in group), len(group)]
                        for group in members)
            assert delta_s[pos] == pytest.approx(s_max - s_bar, rel=0, abs=1e-12), string
        frontier = chaos.hypersensitivity_experiment(cfg).frontier
        split = qstate.von_neumann_entropy_bits((rho + kicked) / 2) - qstate.von_neumann_entropy_bits(rho)
        assert frontier.delta_s[-1] == pytest.approx(split, rel=0, abs=1e-12)
        assert frontier.i_min[-1] == 1.0


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
        delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(chaos.subset_means(fig2_regular_ensemble)))
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
        table = chaos.subset_entropies(chaos.subset_means(ensemble))
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

    def test_steps_default_to_the_config(self):
        result = chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5", steps=2))
        assert result.n_partitions == 15  # Bell(4): four histories

    def test_config_steps_beyond_the_scan_rejected_before_work(self, monkeypatch):
        def forbidden(cfg, n_steps):
            raise AssertionError("history ensemble built for a rejected step count")

        monkeypatch.setattr(chaos, "history_ensemble", forbidden)
        with pytest.raises(ValueError, match="64 histories"):
            chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig2"))  # 6 steps

    def test_negative_seed_rejected_before_work(self, monkeypatch):
        def forbidden(cfg, n_steps):
            raise AssertionError("history ensemble built for a rejected seed")

        monkeypatch.setattr(chaos, "history_ensemble", forbidden)
        with pytest.raises(ValueError, match="seed=-1"):
            chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5", seed=-1))

    def test_one_greedy_run_per_distinct_ordered_draw(self, monkeypatch):
        # one group, or one per state, gives one grouping whatever the draw,
        # so only 2 <= k <= n - 1 groups are drawn and run: each distinct
        # ordered draw once, in draw order, one lockstep call per k
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", seed=5)
        n = 8
        draws = list(dict.fromkeys(seed_draw(n, n_groups, [cfg.seed, n_groups, trial])
                                   for n_groups in range(2, n)
                                   for trial in range(chaos.GREEDY_RESTARTS)))
        seen, calls, rngs = [], [], []
        original, default_rng = chaos.greedy_groupings, np.random.default_rng

        def counting(means, entropies, draws, table=None):
            calls.append(len(draws))
            seen.extend(map(tuple, draws))
            return original(means, entropies, draws, table)

        def counting_rng(seed):
            rngs.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(chaos, "greedy_groupings", counting)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        chaos.hypersensitivity_experiment(cfg)
        assert len(rngs) == (n - 2) * chaos.GREEDY_RESTARTS
        assert len(draws) < len(rngs)
        assert len(calls) == n - 2
        assert seen == draws

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("hamiltonian", ["noxy", "full"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_greedy_points_equal_drawing_every_group_count(self, variant, hamiltonian, seed):
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian, seed=seed)
        assert hex_points(chaos.hypersensitivity_experiment(cfg).greedy_points) == hex_points(
            oracles.drawn_greedy_points(cfg, 3))

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_short_ensembles_equal_drawing_every_group_count(self, n_steps):
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", seed=5)
        assert hex_points(chaos.hypersensitivity_experiment(cfg, n_steps).greedy_points) == hex_points(
            oracles.drawn_greedy_points(cfg, n_steps))

    def test_greedy_diagonalises_once_per_memo_key(self, monkeypatch):
        tables, runs, diagonalised, inside = [], [], [], []
        greedy, eigvalsh = chaos.greedy_groupings, np.linalg.eigvalsh

        def counting_eigvalsh(a):
            if inside:
                diagonalised.append(math.prod(np.shape(a)[:-2]))
            return eigvalsh(a)

        def counting_greedy(means, entropies, draws, table=None):
            tables.append(table)
            inside.append(True)
            try:
                rows = greedy(means, entropies, draws, table)
            finally:
                inside.pop()
            runs.extend(zip(draws, rows.tolist()))
            return rows

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(chaos, "greedy_groupings", counting_greedy)
        chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5"))
        # one table for the whole job, filled at exactly the entries the runs
        # read, and no entry diagonalised twice
        assert tables and all(table is tables[0] for table in tables)
        filled = {tuple(key) for key in np.argwhere(~np.isnan(tables[0])).tolist()}
        assert filled == set().union(*(memo_keys(draw, row) for draw, row in runs))
        assert sum(diagonalised) == len(filled)
        # at most one batched call for the mixtures of each placement:
        # n - k for each k = 2..7, 21 in all, where one call per draw made
        # about 210
        n = 8
        assert len(diagonalised) <= sum(n - k for k in range(2, n)) == 21

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
