import dataclasses
import math
import operator
import re
from collections import Counter
from itertools import chain, permutations, zip_longest

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


def record_checks(monkeypatch):
    """Patch ``qstate.density_matrix_defects``, the check that
    ``lindblad._check_evolved`` calls, to record a (-1, 8, 8) copy of the
    states each call checks; return that list."""
    checked, check = [], qstate.density_matrix_defects

    def recording(rho):
        checked.append(np.array(rho).reshape(-1, 8, 8))
        return check(rho)

    monkeypatch.setattr(qstate, "density_matrix_defects", recording)
    return checked


def with_extra_operators(monkeypatch, extra):
    """Patch ``chaos._steps`` to append ``extra(n, z)``, a tuple of operator
    pairs, to the program of each step n = 1, 2, ...; z is the Z of the
    step's kicked spin."""
    steps = chaos._steps
    monkeypatch.setattr(chaos, "_steps", lambda config, engine, n_steps: [
        (operators + extra(n, z), z)
        for n, (operators, z) in enumerate(steps(config, engine, n_steps), start=1)])


def grow_from(bad_step):
    """``extra`` for :func:`with_extra_operators`: from ``bad_step`` on, each
    step scales the state by 1e200, so that step breaks the trace, the next
    overflows to inf and the one after that reaches NaN."""
    grow = (1e200 * np.eye(64), None)
    return lambda n, z: (grow,) if n >= bad_step else ()


def assert_same_operators(got, want):
    """Two resolved programs apply the same operators, in order."""
    assert len(got) == len(want)
    for pair, ref in zip(got, want):
        for a, b in zip(pair, ref, strict=True):
            assert (a is None) == (b is None) and (a is None or np.array_equal(a, b))


def reference_history_ensemble(config, n_steps):
    """Every history evolved from the start on its own: 2**n * n steps."""
    engine = config.engine()
    steps = chaos._steps(config, engine, n_steps)
    out = []
    for idx in range(2**n_steps):
        rho = chaos.initial_density()
        for n, (operators, z) in enumerate(steps, start=1):
            rho = lindblad._evolve(rho, operators)
            if (idx >> (n_steps - n)) & 1:
                k = 1j * z  # the kick exp(i*pi*Z/2)
                rho = k @ rho @ k.conj().T
        out.append(rho)
    return out


def seed_draw(n, n_groups, seed):
    """The seed members a restart draws, in group order."""
    return tuple(np.random.default_rng(seed).choice(n, size=n_groups, replace=False).tolist())


def memo_keys_by_placement(seeds, assignment) -> list[set]:
    """The memo entries one greedy run reads at each of its placements, from
    its row of seed masks and its result: ``(mask, idx)`` for each group of
    two or more members when state ``idx`` is placed (a one-member group's
    mixture is read from the subset table, and an unused slot is none)."""
    masks = [int(mask) for mask in seeds]
    seeded, placements = sum(masks), []
    for idx in range(len(assignment)):
        if not seeded >> idx & 1:
            placements.append({(mask, idx) for mask in masks if mask.bit_count() > 1})
            masks[assignment[idx]] |= 1 << idx
    return placements


def memo_keys(seeds, assignment) -> set:
    """The memo entries one greedy run reads, at any placement."""
    return set().union(*memo_keys_by_placement(seeds, assignment))


def record_mixtures(monkeypatch) -> list:
    """Record every (matrix, entropy) of ``qstate.von_neumann_entropy_bits``
    calls from here on: greedy diagonalises its memo's misses through it."""
    recorded, entropies = [], qstate.von_neumann_entropy_bits

    def recording(rhos):
        out = entropies(rhos)
        recorded.extend(zip(np.reshape(rhos, (-1, *np.shape(rhos)[-2:])), np.ravel(out).tolist()))
        return out

    monkeypatch.setattr(qstate, "von_neumann_entropy_bits", recording)
    return recorded


def record_batches(monkeypatch) -> list:
    """Record each ``qstate.von_neumann_entropy_bits`` call from here on
    as the set of its matrices' bytes and its number of matrices."""
    recorded, entropies = [], qstate.von_neumann_entropy_bits

    def recording(rhos):
        stack = np.reshape(rhos, (-1, *np.shape(rhos)[-2:]))
        recorded.append(({m.tobytes() for m in stack}, len(stack)))
        return entropies(rhos)

    monkeypatch.setattr(qstate, "von_neumann_entropy_bits", recording)
    return recorded


def memo_mixtures(means, keys) -> Counter:
    """The mixtures ``(means[mask] + means[1 << idx]) / 2`` of memo entries
    ``keys``, each counted by its bytes."""
    return Counter(((means[mask] + means[1 << idx]) / 2).tobytes() for mask, idx in keys)


def memo_slots(means, keys) -> dict:
    """The memo slots of greedy's entries ``keys`` that a placement
    diagonalises, each mapped to one of its entries.  Entries share a slot
    when their groups' means and their placed states have the same bytes;
    a slot whose group mean has a member's bytes is read from the subset
    table, so it is left out."""
    members = {means[1 << i].tobytes() for i in range(len(means).bit_length() - 1)}
    slots: dict = {}
    for mask, idx in sorted(keys):
        slot = (means[mask].tobytes(), means[1 << idx].tobytes())
        if slot[0] not in members:
            slots.setdefault(slot, (mask, idx))
    return slots


def assert_pair_mixtures_are_subset_entries(rhos):
    """Greedy reads a one-member group's mixture with state ``i`` from the
    subset table: for every a != i, the entropy of
    ``(means[1 << a] + means[1 << i]) / 2``, diagonalised alone or in one
    batch as the memo would, hex-equals ``entropies[1 << a | 1 << i]``."""
    n = len(rhos)
    means = chaos.subset_means(rhos)
    entropies = chaos.subset_entropies(means)
    pairs = [(a, i) for a in range(n) for i in range(n) if a != i]
    mixtures = np.array([(means[1 << a] + means[1 << i]) / 2 for a, i in pairs])
    batched = qstate.von_neumann_entropy_bits(mixtures)
    for (a, i), mixture, entropy in zip(pairs, mixtures, batched.tolist()):
        expected = float(entropies[1 << a | 1 << i]).hex()
        assert entropy.hex() == expected, (a, i)
        assert qstate.von_neumann_entropy_bits(mixture).hex() == expected, (a, i)


def hex_points(points):
    """(delta_s, I) points as float.hex pairs, which tell -0.0 from 0.0."""
    return [(d.hex(), i.hex()) for d, i in points]


def hexes(values):
    """Each float of ``values`` by float.hex."""
    return [float(x).hex() for x in values]


def labels(rows) -> list[list[int]]:
    """Rows of grown group masks, as ``chaos.greedy_groupings`` returns
    them, as rows of labels: each state's slot, the one mask holding it."""
    return [[next(g for g, mask in enumerate(row) if mask >> k & 1) for k in range(sum(row).bit_length())]
            for row in np.asarray(rows).tolist()]


def group_masks(assignment) -> list[int]:
    """The member mask of each distinct label of ``assignment``, in
    first-appearance order."""
    masks: dict = {}
    for k, g in enumerate(assignment):
        masks[g] = masks.get(g, 0) | 1 << k
    return list(masks.values())


def mask_keyed_greedy(means, entropies, seeds) -> np.ndarray:
    """``chaos.greedy_groupings`` with its memo keyed by (mask, placed
    state), as it was before the memo read the table's distinct means: a
    (2**n, n) memo at ``[mask, idx]``, each placement diagonalising the
    distinct matrices of its misses, by their bytes, in one batch.  Returns
    the grown masks."""
    n = len(entropies).bit_length() - 1
    masks = np.array(seeds, np.int64)
    bits = 1 << np.arange(n)
    memo = np.full((2**n, n), np.nan)
    memo[0] = 0.0
    memo[bits] = entropies[bits[:, None] | bits]
    memo = memo.reshape(-1)
    union = np.bitwise_or.reduce(masks, axis=1)
    sizes = (masks != 0).sum(axis=1)
    pending = np.argsort((union[:, None] & bits) != 0, axis=1, kind="stable")
    for step in range(n - sizes.min()):
        rows = np.flatnonzero(sizes < n - step)
        idx = pending[rows, step]
        m = masks[rows]
        keys = m * n + idx[:, None]
        new = np.unique(keys[np.isnan(memo[keys])])
        if len(new):
            mask, placed = np.divmod(new, n)
            mixtures = (means[mask] + means[bits[placed]]) / 2
            slots: dict = {}
            inverse = np.array([slots.setdefault(rho.tobytes(), len(slots)) for rho in mixtures])
            first = np.unique(inverse, return_index=True)[1]
            memo[new] = qstate.von_neumann_entropy_bits(mixtures[first])[inverse]
        dists = np.maximum(memo[keys] - (entropies[m] + entropies[bits[idx]][:, None]) / 2, 0.0)
        dists[m == 0] = np.inf
        masks[rows, dists.argmin(axis=1)] |= bits[idx]
    return masks


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

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("steps", 2.5), ("seed", "1")])
    def test_non_integral_count_rejected_before_any_engine(self, field, value, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(chaos, "EvolutionEngine", forbidden)
        with pytest.raises(AssertionError, match="engine was built"):  # the patch is live
            chaos.entropy_experiment(ExperimentConfig.preset("fig5"))
        with pytest.raises(TypeError):
            chaos.entropy_experiment(ExperimentConfig.preset("fig5", **{field: value}))

    # 2 sized entropy_run's stack for three blocks and the check read rows
    # np.empty never filled; the others failed later, deep inside the run
    @pytest.mark.parametrize("value", [2, "no", 0.5, None], ids=repr)
    def test_non_bool_perturbation_rejected_before_any_engine(self, value, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(chaos, "EvolutionEngine", forbidden)
        with pytest.raises(ValueError, match="artificial_perturbation must be a bool"):
            chaos.entropy_experiment(ExperimentConfig.preset("fig2", steps=3, artificial_perturbation=value))

    # steps=True ran one step under a header "steps=True" that no CLI flag replays
    @pytest.mark.parametrize("field", ["steps", "seed"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)], ids=repr)
    def test_bool_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            ExperimentConfig.preset("fig2", **{field: value})

    def test_numpy_bool_perturbation_accepted(self):
        cfg = ExperimentConfig.preset("fig2", steps=3, artificial_perturbation=np.bool_(True))
        assert chaos.entropy_experiment(cfg) == chaos.entropy_experiment(
            ExperimentConfig.preset("fig2", steps=3, artificial_perturbation=True))

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

    @pytest.mark.parametrize("preset", ["fig2", "fig4"])  # fig4 averages a kick in
    def test_each_state_is_checked_once(self, preset, monkeypatch):
        cfg = ExperimentConfig.preset(preset, steps=5)
        checked = record_checks(monkeypatch)
        chaos.entropy_experiment(cfg)
        # one stacked call over every step's evolved state, then every kick
        assert [len(states) for states in checked] == [cfg.steps * (1 + cfg.artificial_perturbation)]

    @pytest.mark.parametrize("preset", ["fig2", "fig4"])
    def test_each_state_is_diagonalised_once(self, preset, monkeypatch):
        cfg = ExperimentConfig.preset(preset, steps=5)
        chaos.entropy_experiment(cfg)  # takes the initial state's entropy, once per process
        diagonalised, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: diagonalised.append(len(a)) or eigvalsh(a))
        states, spectra = chaos.entropy_run(cfg)
        chaos.entropy_experiment(cfg)
        # the check's spectra give the series: one call for the whole stack
        assert diagonalised == [len(states)] * 2
        assert np.array_equal(spectra, eigvalsh(states))

    def test_initial_entropy_equals_its_batched_value(self):
        batch = np.array([chaos.initial_density(), np.eye(8) / 8])
        assert chaos._initial_entropy().hex() == qstate.von_neumann_entropy_bits(batch)[0].hex()
        assert chaos.entropy_experiment(ExperimentConfig.preset("fig2", steps=1))[0] == (
            0, chaos._initial_entropy())

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("hamiltonian", nmr.VARIANTS)
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_equals_the_per_step_loop_bit_for_bit(self, variant, hamiltonian, perturbed):
        cfg = ExperimentConfig.preset("fig2", map_variant=variant, hamiltonian=hamiltonian,
                                      artificial_perturbation=perturbed)
        got, want = chaos.entropy_experiment(cfg), oracles.per_step_entropy_series(cfg)
        assert [(n, s.hex()) for n, s in got] == [(n, s.hex()) for n, s in want]
        assert all(type(n) is int and type(s) is float for n, s in got)

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("bad_step", [1, 4, 8])
    def test_first_bad_step_raises_what_a_per_step_check_raised(self, bad_step, perturbed, monkeypatch):
        # the steps after the bad one run on and turn its state non-finite;
        # pytest turns any warning that escapes into an error
        with_extra_operators(monkeypatch, grow_from(bad_step))
        cfg = ExperimentConfig.preset("fig2", steps=8, artificial_perturbation=perturbed)
        with pytest.raises(lindblad.PhysicsError, match="trace") as want:
            oracles.per_step_entropy_series(cfg)
        checked = record_checks(monkeypatch)
        with pytest.raises(lindblad.PhysicsError) as got:
            chaos.entropy_experiment(cfg)
        assert str(got.value) == str(want.value)
        [states] = checked
        assert len(states) == cfg.steps * (1 + perturbed)
        for half in states.reshape(1 + perturbed, cfg.steps, 8, 8):  # evolved states, then kicks
            assert np.isfinite(half[:bad_step]).all()
            assert not np.isfinite(half[bad_step + 1:]).any()

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_defect_the_kick_would_erase_still_raises(self, variant, monkeypatch):
        # step 3 adds i*eps to two mirrored entries on opposite sides of the
        # kicked spin: only hermiticity breaks, and the averaged kick that
        # follows zeroes both entries, so only the pre-kick state shows it
        def coherence(n, z):
            if n != 3:
                return ()
            j = np.flatnonzero(np.diag(z) != z[0, 0])[0]
            e = np.zeros((8, 8), dtype=complex)
            e[0, j] = e[j, 0] = 1e-6j
            return ((np.eye(64) + np.outer(e.ravel(), np.eye(8).ravel()), None),)

        [(operator_, _)] = coherence(3, nmr.LIFTED_PAULI["Z", nmr.SPIN_H])
        bad = lindblad._evolve(chaos.initial_density(), ((operator_, None),))
        assert qstate.density_matrix_defects(bad)[0] == ["hermiticity violated by 2.000e-06"]
        assert qstate.density_matrix_defects(
            chaos._averaged_kick(bad, nmr.LIFTED_PAULI["Z", nmr.SPIN_H]))[0] == []
        with_extra_operators(monkeypatch, coherence)
        cfg = ExperimentConfig.preset("fig4", map_variant=variant)
        assert cfg.artificial_perturbation
        with pytest.raises(lindblad.PhysicsError, match="hermiticity") as want:
            oracles.per_step_entropy_series(cfg)
        with pytest.raises(lindblad.PhysicsError) as got:
            chaos.entropy_experiment(cfg)
        assert str(got.value) == str(want.value)


class TestHistoryEnsemble:
    def test_three_steps_give_eight_states(self, fig2_chaotic_ensemble):
        assert len(fig2_chaotic_ensemble) == 8
        for rho in fig2_chaotic_ensemble:
            assert qstate.density_matrix_defects(rho)[0] == []

    def test_all_zero_history_is_unperturbed_run(self, fig2_chaotic_ensemble):
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic", steps=3)
        series = chaos.entropy_experiment(cfg)
        unperturbed_entropy = series[-1][1]
        s = qstate.von_neumann_entropy_bits(fig2_chaotic_ensemble[0])
        assert s == pytest.approx(unperturbed_entropy, abs=1e-12)

    def test_identity_perturbation_collapses_ensemble(self, monkeypatch):
        steps = chaos._steps
        monkeypatch.setattr(chaos, "_steps", lambda config, engine, n_steps: [
            (operators, np.eye(8, dtype=complex))
            for operators, _ in steps(config, engine, n_steps)])
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic")
        rhos = chaos.history_ensemble(cfg, 2)
        for rho in rhos[1:]:
            np.testing.assert_allclose(rho, rhos[0], atol=1e-12)
        s_bar_max = chaos.subset_entropies(chaos.subset_means(rhos))[-1]
        assert s_bar_max == pytest.approx(
            qstate.von_neumann_entropy_bits(rhos[0]), abs=1e-12
        )

    @pytest.mark.parametrize("n_steps", [2.0, 2.5, "2"])
    @pytest.mark.parametrize("run", [chaos.history_ensemble, chaos.hypersensitivity_experiment])
    def test_non_integral_step_count_rejected_before_any_engine(self, run, n_steps, monkeypatch):
        def forbidden(*args):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(chaos, "EvolutionEngine", forbidden)
        cfg = ExperimentConfig.preset("fig5")
        with pytest.raises(AssertionError, match="engine was built"):  # the patch is live
            run(cfg, 2)
        with pytest.raises(TypeError):
            run(cfg, n_steps)

    def test_too_many_steps_rejected(self):
        with pytest.raises(ValueError):
            chaos.history_ensemble(ExperimentConfig.preset("fig5"), 7)

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_each_state_is_checked_once(self, variant, monkeypatch):
        checked = record_checks(monkeypatch)
        chaos.history_ensemble(ExperimentConfig.preset("fig5", map_variant=variant), 3)
        # one stacked call over the 1 + 2 + 4 evolved states
        assert [len(states) for states in checked] == [7]

    @pytest.mark.parametrize("bad_step", [1, 2, 3])
    def test_first_bad_step_raises_what_a_per_step_check_raised(self, bad_step, monkeypatch):
        # the first state of each step is the unkicked run's, whose per-step
        # check the entropy series makes; later steps turn it non-finite
        with_extra_operators(monkeypatch, grow_from(bad_step))
        cfg = ExperimentConfig.preset("fig5")
        with pytest.raises(lindblad.PhysicsError, match="trace") as want:
            oracles.per_step_entropy_series(cfg)
        checked = record_checks(monkeypatch)
        with pytest.raises(lindblad.PhysicsError) as got:
            chaos.history_ensemble(cfg, 3)
        assert str(got.value) == str(want.value)
        [states] = checked
        assert np.isfinite(states[:2**(bad_step - 1) - 1]).all()
        assert not np.isfinite(states[2**bad_step - 1:]).any()

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_too_few_steps_rejected(self, n_steps):
        with pytest.raises(ValueError):
            chaos.history_ensemble(ExperimentConfig.preset("fig5"), n_steps)

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_shared_prefixes_match_separate_histories(self, variant, monkeypatch):
        cfg = ExperimentConfig.preset("fig5", map_variant=variant)
        expected = reference_history_ensemble(cfg, 3)
        states = []

        def counting(rho, operators):
            states.append(rho.reshape(-1, 8, 8).shape[0])
            return lindblad._evolve(rho, operators)

        monkeypatch.setattr(chaos, "_evolve", counting)
        rhos = chaos.history_ensemble(cfg, 3)
        # one step application per distinct state before each step, counted
        # as the states passed in: 1 + 2 + 4
        assert sum(states) == 7
        assert len(rhos) == len(expected) == 8
        for rho, ref in zip(rhos, expected):
            assert np.array_equal(rho, ref)


class TestSteps:
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_schedule(self, variant):
        cfg = ExperimentConfig.preset("fig2", map_variant=variant)
        model, engine = cfg.model(), cfg.engine()
        if variant == "chaotic":
            want = [(nmr.t_odd(model), nmr.SPIN_H), (nmr.t_even(model), nmr.SPIN_C2)] * 2
        else:
            want = [(nmr.t_regular(model), nmr.SPIN_H)] * 4
        steps = chaos._steps(cfg, engine, 4)
        assert len(steps) == len(want)
        for (operators, z), (program, spin) in zip(steps, want):
            assert_same_operators(operators, engine.operators(program))
            assert np.array_equal(z, qstate.embed(qstate.PAULI_Z, spin, nmr.SPINS))
            assert np.array_equal(z @ z, np.eye(8))

    @pytest.mark.parametrize("variant, n_steps, used", [
        ("chaotic", 1, ["t_odd"]), ("chaotic", 5, ["t_odd", "t_even"]),
        ("regular", 1, ["t_regular"]), ("regular", 5, ["t_regular"])])
    def test_each_used_program_resolves_once(self, variant, n_steps, used, monkeypatch):
        cfg = ExperimentConfig.preset("fig2", map_variant=variant, hamiltonian="full")
        engine, resolved = cfg.engine(), []
        resolve = engine.operators
        monkeypatch.setattr(engine, "operators", lambda seq: resolved.append(seq) or resolve(seq))
        steps = chaos._steps(cfg, engine, n_steps)
        assert resolved == [getattr(nmr, name)(cfg.model()) for name in used]
        # a full engine builds an expm only for the delays of programs it runs
        assert set(engine._cache) == {ins.value for seq in resolved
                                      for ins in seq.instructions if ins.op == "U"}
        assert all(steps[n][0] is steps[n % len(used)][0] for n in range(n_steps))

    def test_programs_are_built_once_per_model(self, monkeypatch):
        model = ExperimentConfig().model()
        programs = chaos._programs(model)
        assert programs == (nmr.t_odd(model), nmr.t_even(model), nmr.t_regular(model))
        engine, resolved = ExperimentConfig.preset("fig2").engine(), []
        monkeypatch.setattr(engine, "operators", resolved.append)
        chaos._steps(ExperimentConfig.preset("fig2"), engine, 2)
        chaos._steps(ExperimentConfig.preset("fig3", map_variant="regular"), engine, 1)
        assert len(resolved) == 3 and all(map(operator.is_, resolved, programs))
        assert chaos._programs(nmr.HamiltonianModel(convention="cycles"))[0] != programs[0]

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


class TestPerInstructionOracle:
    """Each run of back-to-back pulses is applied as one pair: against every
    pulse and delay applied one at a time, the regular map (no two pulses
    adjacent) is unchanged to the bit and the chaotic map moves at round-off."""

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("hamiltonian", nmr.VARIANTS)
    def test_regular_map_equals_it_bit_for_bit(self, hamiltonian, convention):
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", hamiltonian=hamiltonian,
                                      convention=convention)
        want = oracles.per_instruction_history_ensemble(cfg, 3)
        assert all(np.array_equal(a, b) for a, b in zip(chaos.history_ensemble(cfg, 3), want, strict=True))
        for preset in "fig2", "fig4":
            cfg = ExperimentConfig.preset(preset, map_variant="regular", hamiltonian=hamiltonian,
                                          convention=convention)
            assert chaos.entropy_experiment(cfg) == oracles.per_instruction_entropy_series(cfg)

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("hamiltonian", nmr.VARIANTS)
    def test_chaotic_map_equals_it_at_round_off(self, hamiltonian, convention):
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic", hamiltonian=hamiltonian,
                                      convention=convention)
        want = oracles.per_instruction_history_ensemble(cfg, 3)
        for got, rho in zip(chaos.history_ensemble(cfg, 3), want, strict=True):
            np.testing.assert_allclose(got, rho, rtol=0, atol=1e-13)
        for preset in "fig2", "fig4":
            cfg = ExperimentConfig.preset(preset, map_variant="chaotic", hamiltonian=hamiltonian,
                                          convention=convention)
            got, want = chaos.entropy_experiment(cfg), oracles.per_instruction_entropy_series(cfg)
            assert [n for n, _ in got] == [n for n, _ in want] == list(range(cfg.steps + 1))
            np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-12)


class TestAveragedKick:
    Z_H, Z_C2 = nmr.LIFTED_PAULI["Z", nmr.SPIN_H], nmr.LIFTED_PAULI["Z", nmr.SPIN_C2]

    def test_idempotent(self):
        once = chaos._averaged_kick(chaos.initial_density(), self.Z_H)
        np.testing.assert_array_equal(chaos._averaged_kick(once, self.Z_H), once)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 8),
           spin=st.sampled_from(nmr.SPINS))
    def test_kicks_of_a_valid_state_stay_valid(self, seed, rank, spin):
        # why neither kick is checked again before the next step
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        assert qstate.density_matrix_defects(rho)[0] == []
        z = nmr.LIFTED_PAULI["Z", spin]
        assert qstate.density_matrix_defects(z @ rho @ z)[0] == []
        assert qstate.density_matrix_defects(chaos._averaged_kick(rho, z))[0] == []

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

    @pytest.mark.parametrize("hamiltonian", ["noxy", "full"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_pair_mixtures_are_subset_entries(self, variant, hamiltonian):
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian)
        assert_pair_mixtures_are_subset_entries(chaos.history_ensemble(cfg, 3))

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

    # rows with unused (zero) slots are valid; one malformed array per
    # rejected case: not 2-D, not integer, no rows, a row with no member, a
    # negative entry, a mask of two bits or of a state past n = 8, a row
    # that repeats a member, and a ragged list
    @pytest.mark.parametrize("seeds", [
        np.array([1, 2]), np.ones((1, 1, 1), np.int64),
        np.array([[1.0, 2.0]]), np.array([[True, False]]), np.array([["1", "2"]]),
        np.zeros((0, 2), np.int64),
        np.array([[1, 2], [0, 0]]), np.zeros((1, 0), np.int64),
        np.array([[1, -4]]), np.array([[1, -2**63]]),
        np.array([[3, 4]]), np.array([[1, 0], [4, 96]]),
        np.array([[1, 256]]), np.array([[2**40]]), np.array([[1, 2**63]], np.uint64),
        np.array([[1, 2], [4, 4]]), np.array([[1, 2, 0, 1]]),
        [[1, 2], [4]],
    ], ids=["1-D", "3-D", "float", "bool", "str", "no-rows", "empty-row", "no-columns", "negative",
            "most-negative", "two-bits", "two-bits-in-a-later-row", "state-8", "state-40", "uint64-top-bit",
            "repeat", "repeat-past-a-gap", "ragged"])
    def test_every_draw_validated(self, seeds, fig2_chaotic_means, fig2_chaotic_table):
        with pytest.raises(ValueError):
            chaos.greedy_groupings(fig2_chaotic_means, fig2_chaotic_table, seeds)

    def test_seed_rows_are_not_written(self, fig2_chaotic_means, fig2_chaotic_table):
        # the groups grow in a copy: the caller's array, of any integer dtype, keeps its values
        for dtype in (np.int64, np.int32, np.uint8):
            seeds = oracles.seed_masks([(5, 0, 2), (1,), (7, 3)]).astype(dtype)
            before = seeds.copy()
            rows = chaos.greedy_groupings(fig2_chaotic_means, fig2_chaotic_table, seeds)
            assert np.array_equal(seeds, before) and seeds.dtype == dtype
            assert labels(rows) == [chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, draw)
                                    for draw in [(5, 0, 2), (1,), (7, 3)]]

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_rows_are_the_grown_seed_masks(self, variant, request):
        # each row partitions the states: its masks are disjoint and cover
        # all eight, each grown from its seed, and an unused slot stays 0
        means = request.getfixturevalue(f"fig2_{variant}_means")
        table = request.getfixturevalue(f"fig2_{variant}_table")
        seeds = oracles.seed_masks([(5, 0, 2), (1,), (7, 3), tuple(range(8)), (6, 4, 2, 0)])
        rows = chaos.greedy_groupings(means, table, seeds)
        assert rows.dtype == np.int64 and rows.shape == seeds.shape
        assert np.array_equal(rows & seeds, seeds) and np.array_equal(rows == 0, seeds == 0)
        assert np.array_equal(rows.sum(axis=1), np.full(len(rows), 255))
        assert np.array_equal(np.bitwise_or.reduce(rows, axis=1), np.full(len(rows), 255))

    @pytest.mark.parametrize("hamiltonian", ["noxy", "simplified", "full"])
    def test_lockstep_rows_on_the_regular_map(self, hamiltonian):
        # every member is bitwise rho or Z_H rho Z_H, so distances tie exactly
        # and the first of equal distances decides
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        rng = np.random.default_rng(7)
        for n_groups in range(1, 9):
            draws = [tuple(rng.permutation(8)[:n_groups].tolist()) for _ in range(24)]
            rows = chaos.greedy_groupings(means, table, oracles.seed_masks(draws))
            assert labels(rows) == [oracles.reference_greedy_grouping(rhos, draw) for draw in draws]

    @pytest.mark.parametrize("seeds", [(3,), (5, 0, 2), tuple(range(7)), tuple(range(8))])
    def test_group_entropy_calls(self, seeds, monkeypatch, fig2_chaotic_means, fig2_chaotic_table):
        # a group's entropy, and its mixture with a state while it has one
        # member, are read from the subset table, so one run diagonalises one
        # mixture per group of two or more members and placement, of the
        # k (n - k) it reads for n states and k groups, each once
        diagonalised = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: diagonalised.append(len(a)) or eigvalsh(a))
        mixtures = record_mixtures(monkeypatch)
        n, k = 8, len(seeds)
        assignment = chaos.greedy_grouping(fig2_chaotic_means, fig2_chaotic_table, seeds)
        keys = memo_keys(oracles.seed_masks([seeds])[0], assignment)
        assert Counter(m.tobytes() for m, _ in mixtures) == memo_mixtures(fig2_chaotic_means, keys)
        # the first placement, if any, reads every group with one member
        assert sum(diagonalised) == len(keys) <= k * max(n - k - 1, 0)

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
    def test_one_call_over_every_count_changes_no_assignment(self, variant, hamiltonian, monkeypatch):
        # a fixed call on pure states with unused slots: a state's distance to
        # a zero mask would be S(rho_idx)/2, about 0, below its distance to
        # every real group, so only the +inf mask keeps it out
        vectors = np.random.default_rng(5).normal(size=(6, 8, 2)) @ [1, 1j]
        pure = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vectors]
        pure_means = chaos.subset_means(pure)
        pure_table = chaos.subset_entropies(pure_means)
        ragged = [(0,), (4, 1), (5, 2, 0)]
        assert max(pure_table[1 << i] for i in range(6)) < 1e-12
        assert labels(chaos.greedy_groupings(pure_means, pure_table, oracles.seed_masks(ragged))) == [
            oracles.reference_greedy_grouping(pure, draw) for draw in ragged]
        # all 512 draws of group counts 1 to 8, repeats included: each
        # count's draws in lockstep, in draw order, then every count in one
        # call
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian)
        rhos = chaos.history_ensemble(cfg, 3)
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        every_count, every_row = [], []
        for n_groups in range(1, 9):
            draws = [seed_draw(8, n_groups, [cfg.seed, n_groups, trial]) for trial in range(chaos.GREEDY_RESTARTS)]
            rows = labels(chaos.greedy_groupings(means, table, oracles.seed_masks(draws)))
            for draw, row in zip(draws, rows):
                alone = chaos.greedy_grouping(means, table, draw)
                assert alone == oracles.reference_greedy_grouping(rhos, draw), draw
                assert row == alone, draw
            every_count += draws
            every_row += rows
        # every count in one call, through one memo, row for row as the
        # per-count calls and the reference
        mixtures = record_mixtures(monkeypatch)
        batches = record_batches(monkeypatch)
        every_seed = oracles.seed_masks(every_count)
        assert len(set(every_count)) < len(every_count) == 512
        assert labels(chaos.greedy_groupings(means, table, every_seed)) == every_row
        runs = [memo_keys_by_placement(seeds, row) for seeds, row in zip(every_seed, every_row)]
        keys = set().union(*chain.from_iterable(runs))
        if variant == "chaotic":
            # every entry its runs read is its own mixture, diagonalised once
            assert keys and Counter(m.tobytes() for m, _ in mixtures) == memo_mixtures(means, keys)
        else:
            # the members are two states, so distinct entries share mixtures
            assert keys and sum(count for _, count in batches) < len(keys)
        # each placement diagonalises the mixtures of the memo slots its
        # entries read that no earlier placement filled, each once in the call
        first_read, seen = [], set()
        for placement in zip_longest(*runs, fillvalue=set()):
            new = {slot: key for slot, key in memo_slots(means, set().union(*placement)).items() if slot not in seen}
            seen |= new.keys()
            if new:
                first_read.append(memo_mixtures(means, new.values()))
        # one matrix per memo slot.  Slots are keyed by (mean id, member
        # class), not by bytes, so two slots' mixtures may match byte for
        # byte, in one batch or across placements, and a mixture may match a
        # mean the subset table already diagonalised: a batch's count may
        # pass its distinct matrices.  On these draws the regular map
        # diagonalises 24 matrices, 2 of them twice and 2 table means (no
        # repeat within a batch), and the chaotic map none of either; no
        # more may
        assert batches == [(set(slots), sum(slots.values())) for slots in first_read]
        diagonalised = [m.tobytes() for m, _ in mixtures]
        bound = 0 if variant == "chaotic" else 2
        assert len(diagonalised) - len(set(diagonalised)) <= bound
        assert len(set(diagonalised) & {m.tobytes() for m in means}) <= bound
        # and each entry is the entropy its index names: the members of mask
        # summed in ascending order, averaged, mixed with rhos[idx]; a slot
        # filled from the subset table holds the table's entry of its matrix
        entropies = {m.tobytes(): entropy for m, entropy in zip(means, table)}
        entropies.update((m.tobytes(), entropy) for m, entropy in mixtures)
        for mask, idx in keys:
            assert not mask >> idx & 1, (mask, idx)
            first, *rest = [rhos[i] for i in range(8) if mask >> i & 1]
            total = first
            for rho in rest:
                total = total + rho
            expected = qstate.von_neumann_entropy_bits((total / mask.bit_count() + rhos[idx]) / 2)
            mixture = ((means[mask] + means[1 << idx]) / 2).tobytes()
            assert float(entropies[mixture]).hex() == expected.hex(), (mask, idx)


def numpy_draws(seed, n):
    """numpy's own ``choice`` draws of 2 to n - 1 of ``n`` members, one per
    restart, group counts ascending: the draws of ``chaos.greedy_draws``."""
    return [seed_draw(n, n_groups, [seed, n_groups, trial])
            for n_groups in range(2, n) for trial in range(chaos.GREEDY_RESTARTS)]


def numpy_seed_masks(seed, n):
    """:func:`numpy_draws` as the (lanes, n - 1) seed masks ``chaos.greedy_draws`` returns."""
    return oracles.seed_masks(numpy_draws(seed, n), n - 1)


class TestGreedyDraws:
    """``greedy_draws`` against numpy's own draws, and each layer beneath
    it against numpy's own lower layer: the seeding against ``SeedSequence``,
    the generator words against ``PCG64``, the bounded draws against
    ``Generator.integers``.  NEP 19 does not freeze ``Generator`` streams
    across numpy releases; these draws were checked against numpy 2.4, so a
    failure after a numpy upgrade may be numpy's stream moving rather than a
    fault in ``greedy_draws``, and the layer tests that fail name the layer
    that moved."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**130), st.integers(1, chaos.MAX_SCAN_STATES))
    def test_rows_equal_numpy_choice(self, seed, n):
        seeds = chaos.greedy_draws(seed, n)
        assert seeds.dtype == np.int64 and seeds.shape == (max(n - 2, 0) * chaos.GREEDY_RESTARTS, n - 1)
        assert np.array_equal(seeds, numpy_seed_masks(seed, n))

    # the seed's last word, its first two-word value, and seeds of three and
    # five words, whose entropy runs past SeedSequence's pool of four words
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128 + 1])
    def test_seeds_at_word_edges(self, seed):
        seeds, expected = chaos.greedy_draws(seed, 8), numpy_seed_masks(seed, 8)
        for n_groups in range(2, 8):  # each group count's rows, then the zeros past its members
            rows = slice((n_groups - 2) * chaos.GREEDY_RESTARTS, (n_groups - 1) * chaos.GREEDY_RESTARTS)
            assert np.array_equal(seeds[rows], expected[rows]), n_groups
            assert not seeds[rows, n_groups:].any() and seeds[rows, :n_groups].all(), n_groups

    # one lane per word list, a second lane on the reversed list; five and
    # six words run past the pool of four
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda size: st.lists(st.integers(0, 2**32 - 1), min_size=size, max_size=size)))
    def test_seeding_equals_seed_sequence(self, words):
        lanes = [words, words[::-1]]
        expected = [np.random.SeedSequence(lane).generate_state(4, np.uint64) for lane in lanes]
        assert np.array_equal(chaos._seed_state(np.array(lanes, np.uint32).T), np.array(expected).T)

    @pytest.mark.parametrize("words", [[0], [5, 3], [2**32 - 1, 7, 63], [1, 2, 3, 4], [9, 8, 7, 6, 5, 2**31]])
    def test_words_equal_pcg64_raw_outputs(self, words):
        seeded = chaos._seed_state(np.array([words, words[::-1]], np.uint32).T)
        for lane, entropy in enumerate([words, words[::-1]]):
            for t in range(1, 11):
                raw = np.random.PCG64(np.random.SeedSequence(entropy)).random_raw(t)
                expected = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)
                assert chaos._pcg_words(seeded, 0, t)[:, lane].tolist() == expected.tolist(), (lane, t)
            # a stream extended from its fourth output on continues it
            assert chaos._pcg_words(seeded, 4, 10)[:, lane].tolist() == expected[8:].tolist(), lane

    @pytest.mark.parametrize("seed", range(4))
    def test_rejected_words_are_redrawn(self, seed, monkeypatch):
        # on [0, top] with top + 1 = 3 * 2**30, Lemire's method rejects a
        # word whose low product word is under 2**32 mod (top + 1) = 2**30,
        # about a quarter of words, where the draws of n <= 10 states reject
        # one in 2**30 at most.  Lanes 0-47 alternate that range with a small
        # one, lanes 48-63 draw the small one only; lane l makes 20 - l % 4
        # draws, zero tops after.  Every rejection moves its lane's later
        # draws on one word, and 20 draws start from 20 precomputed words.
        lanes_n, big = 64, 3 * 2**30 - 1
        lane, t = np.arange(lanes_n), np.arange(20)[:, None]
        tops = np.where((t % 2 == 1) | (lane >= 48), 5, big) * (t < 20 - lane % 4)
        spans = []
        pcg_words = chaos._pcg_words
        monkeypatch.setattr(chaos, "_pcg_words", lambda seeded, start, stop: spans.append((start, stop))
                            or pcg_words(seeded, start, stop))
        drawn = chaos._bounded(chaos._seed_state(np.array([np.full(lanes_n, seed), lane], np.uint32)), tops)
        used = []  # words each lane's numpy generator took
        for i in range(lanes_n):
            rng = np.random.default_rng([seed, i])
            count = 20 - i % 4
            assert drawn[:count, i].tolist() == [int(rng.integers(0, top + 1)) for top in tops[:count, i]], i
            assert not drawn[count:, i].any()
            state, fresh, outputs = rng.bit_generator.state, np.random.PCG64(np.random.SeedSequence([seed, i])), 0
            while fresh.state["state"] != state["state"]:
                fresh.random_raw()
                outputs += 1
            used.append(2 * outputs - state["has_uint32"])
        rejections = np.array(used) - (20 - lane % 4)
        assert (rejections >= 2).sum() > 8 and (rejections[:48] == 0).any() and not rejections[48:].any()
        assert max(used) > 20 and spans[0] == (0, 10) and len(spans) > 1  # the stream was extended

    @pytest.mark.parametrize("n", [1, 2])
    def test_nothing_to_draw_below_three_states(self, n):
        seeds = chaos.greedy_draws(0, n)
        assert seeds.shape == (0, n - 1) and seeds.dtype == np.int64

    @pytest.mark.parametrize("seed, n", [(-1, 8), (0, 0), (0, chaos.MAX_SCAN_STATES + 1)])
    def test_bad_seed_or_state_count_rejected(self, seed, n):
        with pytest.raises(ValueError, match="need seed >= 0"):
            chaos.greedy_draws(seed, n)

    def test_float_seed_rejected_as_numpy_rejects_it(self):
        with pytest.raises(TypeError):
            np.random.default_rng([1.5, 2, 0])
        with pytest.raises(TypeError):
            chaos.greedy_draws(1.5, 8)
        assert np.array_equal(chaos.greedy_draws(np.int64(5), 8), numpy_seed_masks(5, 8))

    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_short_ensembles_of_a_five_word_seed(self, n_steps):
        cfg = ExperimentConfig.preset("fig5", map_variant="chaotic", seed=2**128 + 1)
        assert hex_points(chaos.hypersensitivity_experiment(cfg, n_steps).greedy_points) == hex_points(
            oracles.drawn_greedy_points(cfg, n_steps))


class TestSetPartitions:
    @pytest.mark.parametrize(
        "n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (8, 4140)]
    )
    def test_bell_numbers(self, n, bell):
        strings = chaos.set_partitions(n)
        assert strings.shape == (bell, n) and strings.dtype == np.int64

    def test_strings_are_restricted_growth(self):
        for a in chaos.set_partitions(5).tolist():
            assert a[0] == 0
            for k in range(1, 5):
                assert a[k] <= max(a[:k]) + 1

    def test_no_duplicates(self):
        parts = list(map(tuple, chaos.set_partitions(6).tolist()))
        assert len(parts) == len(set(parts)) == 203

    @pytest.mark.parametrize("n", range(1, chaos.MAX_SCAN_STATES + 1))
    def test_rows_are_in_lexicographic_order(self, n):
        # each string read in base n ascends row by row
        keys = chaos.set_partitions(n) @ n ** np.arange(n - 1, -1, -1)
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("n, message", [(0, "at least one element"), (-1, "at least one element"),
                                            (chaos.MAX_SCAN_STATES + 1, "limited to 10 states, not 11")])
    def test_counts_outside_the_scan_rejected(self, n, message):
        with pytest.raises(ValueError, match=message):
            chaos.set_partitions(n)

    def test_layout_is_read_only(self):
        # every scan of an 8-state ensemble shares this one layout
        by_size, information, keys, weights = chaos._partition_layout(8)
        arrays = [information, keys, weights, *(array for group in by_size for array in group)]
        assert len(arrays) == 3 + 3 * 8
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

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
    def test_staircase_expands_to_the_running_minimum(self, preset, variant):
        rhos = chaos.history_ensemble(ExperimentConfig.preset(preset, map_variant=variant), 3)
        delta_s, info, _ = chaos.partition_scan(chaos.subset_entropies(chaos.subset_means(rhos)))
        curve = chaos._frontier_from_scan(delta_s, info)
        expected_d, expected_i = oracles.running_minimum_frontier(delta_s, info)
        assert [x.hex() for x in curve.delta_s.tolist()] == [x.hex() for x in expected_d.tolist()]
        assert [x.hex() for x in curve.i_min.tolist()] == [x.hex() for x in expected_i.tolist()]
        assert hex_points(curve.points()) == hex_points(zip(expected_d.tolist(), expected_i.tolist()))
        # one level per partition shape at most: 22 integer partitions of 8
        assert len(curve.levels) <= 22 and np.all(np.diff(curve.levels) > 0)
        held = sum((a if a.base is None else a.base).nbytes
                   for a in (getattr(curve, f.name) for f in dataclasses.fields(curve)))
        assert held <= curve.delta_s.nbytes + 16 * len(curve.levels)

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

    @pytest.mark.parametrize("hamiltonian", ["noxy", "full", "simplified"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    @pytest.mark.parametrize("preset", sorted(chaos.PRESETS))
    def test_slope_equals_polyfit(self, preset, variant, hamiltonian):
        # the closed form moved the seed 0-1 hyper_sweep slopes by at most
        # 2.5e-15 of their size (5.7e-14 absolute) from np.polyfit's
        curve = chaos.hypersensitivity_experiment(
            ExperimentConfig.preset(preset, map_variant=variant, hamiltonian=hamiltonian), 3).frontier
        lo, hi = curve.delta_s.max() * 0.2, curve.delta_s.max() * 0.8
        interior = (curve.delta_s >= lo) & (curve.delta_s <= hi)
        assert interior.sum() >= 2
        expected = np.polyfit(curve.delta_s[interior], curve.i_min[interior], 1)[0]
        assert chaos.frontier_slope(curve) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("delta_s, slope", [
        ([0.0, 1.0], None), ([0.0, 0.1, 1.0], None), ([0.0, 0.5, 1.0], None),  # no interior, then one point
        ([0.0, 0.25, 0.5, 1.0], 4.0), ([0.0, 0.2, 0.8, 1.0], 1 / 0.6)])  # both 20-80 % ends are interior
    def test_slope_needs_two_interior_points(self, delta_s, slope):
        levels = np.arange(len(delta_s), dtype=float)
        curve = chaos.HypersensitivityCurve(np.array(delta_s), levels, np.arange(len(delta_s)))
        if slope is None:
            assert math.isnan(chaos.frontier_slope(curve))
        else:
            assert chaos.frontier_slope(curve) == pytest.approx(slope, rel=1e-14)


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
    """Ordered draws of ``n`` members, one group count for all or one each,
    repeats allowed."""
    counts = st.integers(1, n)
    if draw(st.booleans()):
        counts = st.just(draw(counts))
    draw_of = st.tuples(st.permutations(range(n)), counts).map(lambda pk: tuple(pk[0][:pk[1]]))
    return draw(st.lists(draw_of, min_size=1, max_size=12))


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
        for assignment in chaos.set_partitions(k).tolist():
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
        assignment = data.draw(st.lists(st.integers(-3, 12), min_size=n, max_size=n))
        string = oracles.first_appearance(assignment)
        position = chaos._scan_positions(np.array([group_masks(assignment)]), n)[0]
        assert position == chaos.set_partitions(n).tolist().index(list(string))
        table = chaos.subset_entropies(chaos.subset_means(rhos))
        stats = chaos.grouping_stats(assignment, table)
        expected = oracles._score(assignment, table)
        # float.hex tells -0.0 from 0.0
        assert ((stats.mean_conditional_entropy.hex(), stats.information.hex())
                == tuple(x.hex() for x in expected))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_positions_equal_the_set_partitions_index(self, data):
        # rows of any labels, each as its group masks in a drawn slot order
        # with unused (zero) slots among them, padded to one width
        n = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(st.lists(st.integers(-3, 12), min_size=n, max_size=n),
                                  min_size=1, max_size=6))
        strings = list(map(tuple, chaos.set_partitions(n).tolist()))
        expected = [strings.index(oracles.first_appearance(row)) for row in rows]
        slots = [data.draw(st.permutations(group_masks(row) + [0] * (n + 2 - len(set(row))))) for row in rows]
        assert chaos._scan_positions(np.array(slots, np.int64), n).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_partition_at_its_index_in_any_slot_order(self, n):
        # every slot order of every partition up to n = 5 (541 orders of the
        # 52 partitions of 5); beyond, first-appearance, reversed and one
        # random order; each also shuffled among two or more zero slots
        rng = np.random.default_rng(n)
        rows, expected = [], []
        for position, string in enumerate(chaos.set_partitions(n).tolist()):
            masks = group_masks(string)
            orders = permutations(masks) if n <= 5 else [masks, masks[::-1], rng.permutation(masks).tolist()]
            for order in orders:
                padded = list(order) + [0] * (n + 2 - len(order))
                rows += [padded, rng.permutation(padded).tolist()]
                expected += [position, position]
        assert chaos._scan_positions(np.array(rows, np.int64), n).tolist() == expected

    def test_ten_state_keys_fit_int64(self):
        # ten states, the scan's limit, give the largest keys: the string
        # 0123456789 reads 123456789 in base 10, far below 2**63
        _, _, keys, weights = chaos._partition_layout(10)
        assert keys.dtype == weights.dtype == np.int64
        assert np.all(np.diff(keys) > 0) and keys[-1] == 123456789 < 10**10
        strings = chaos.set_partitions(10)
        rng = np.random.default_rng(10)
        picked = np.sort(rng.choice(len(strings), 200, replace=False))
        rows = [rng.permutation(group_masks(strings[p].tolist()) + [0] * (10 - strings[p].max())).tolist()
                for p in picked]
        assert np.array_equal(chaos._scan_positions(np.array(rows, np.int64), 10), picked)

    @pytest.mark.parametrize("ensembles", [random_ensembles(), parity_ensembles()], ids=["random", "parity"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_lockstep_rows_equal_one_draw_at_a_time(self, ensembles, data):
        rhos = data.draw(ensembles)
        n = len(rhos)
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        for _ in range(2):  # two draw sets per ensemble
            draws = data.draw(draw_sets(n))
            rows = chaos.greedy_groupings(means, table, oracles.seed_masks(draws))
            assert labels(rows) == [oracles.reference_greedy_grouping(rhos, draw) for draw in draws]

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(random_ensembles(st.integers(2, 8)))
    def test_pair_mixtures_are_subset_entries(self, rhos):
        assert_pair_mixtures_are_subset_entries(rhos)

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


@st.composite
def repeated_member_ensembles(draw):
    """2-8 members drawn from 1-4 distinct states of one dimension, each a
    state or its copy Z rho Z under one drawn Z (a diagonal of signs), at
    random positions, so members repeat by their exact bytes."""
    states = draw(random_ensembles(st.integers(1, 4)))
    d = len(states[0])
    z = np.diag(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(states) - 1), st.booleans()), min_size=2, max_size=8))
    return [z @ states[i] @ z if kicked else states[i] for i, kicked in picks]


class TestUnique:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(values=hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-5, 2**40)))
    def test_equals_np_unique(self, values):
        # the greedy memo's new keys and the scan positions; either may be empty
        got, want = chaos._unique(values), np.unique(values)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert chaos._unique(values.tolist()).tobytes() == want.tobytes()


class TestDistinctMatrices:
    # when members repeat a state, subset_entropies diagonalises each
    # distinct mean once and greedy_groupings each distinct mixture once;
    # every entropy, row and error must still be the one plain batch's

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("hamiltonian", ["noxy", "full", "simplified"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_fig5_tables_and_rows_equal_the_plain_batch(self, variant, hamiltonian, convention, monkeypatch):
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian, convention=convention)
        means = chaos.subset_means(chaos.history_ensemble(cfg, 3))
        table = chaos.subset_entropies(means)
        assert hexes(table) == hexes(oracles.plain_subset_entropies(means))
        seeds = chaos.greedy_draws(cfg.seed, 8)  # the experiment's draws, repeats included
        plain = oracles.plain_greedy_groupings(means, table, numpy_draws(cfg.seed, 8))
        mask_keyed = mask_keyed_greedy(means, table, seeds)
        mixtures = record_mixtures(monkeypatch)
        rows = chaos.greedy_groupings(means, table, seeds)
        assert labels(rows) == plain and np.array_equal(rows, mask_keyed)
        # the call diagonalised the mixture of each memo slot its runs read,
        # once, and each entropy is its matrix's own
        keys = set().union(*(memo_keys(row_seeds, row) for row_seeds, row in zip(seeds, labels(rows))))
        slots = memo_slots(means, keys)
        assert Counter(m.tobytes() for m, _ in mixtures) == memo_mixtures(means, slots.values())
        assert (len(slots) == len(keys)) == (variant == "chaotic")
        for mixture, entropy in list(mixtures):  # each check below is recorded too
            assert entropy.hex() == qstate.von_neumann_entropy_bits(mixture).hex()

    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("hamiltonian", ["noxy", "full", "simplified"])
    @pytest.mark.parametrize("variant, distinct", [("chaotic", 255), ("regular", 24)])
    def test_subset_table_diagonalises_each_distinct_mean_once(self, variant, distinct, hamiltonian, convention,
                                                               monkeypatch):
        # the regular map's members are two states, A and B; a subset mean
        # is then fixed by its count of each, 5 * 5 - 1 = 24 at fig5 noise
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian, convention=convention)
        means = chaos.subset_means(chaos.history_ensemble(cfg, 3))
        diagonalised = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: diagonalised.append(len(a)) or eigvalsh(a))
        chaos.subset_entropies(means)
        assert diagonalised == [len({m.tobytes() for m in means[1:]})] == [distinct]

    @pytest.mark.parametrize("bad", ["non-finite", "negative"])
    def test_bad_entry_raises_the_plain_batch_text(self, bad):
        # the regular map's members repeat, so both sites take the distinct
        # matrices; every mean of two or more members is made bad
        cfg = ExperimentConfig.preset("fig5", map_variant="regular")
        means = chaos.subset_means(chaos.history_ensemble(cfg, 3))
        table = chaos.subset_entropies(means)
        multi = [mask for mask in range(256) if mask.bit_count() > 1]
        broken = means.copy()
        broken[multi] = np.nan if bad == "non-finite" else means[multi] - np.eye(8) / 2
        with pytest.raises(ValueError) as want:
            oracles.plain_subset_entropies(broken)
        with pytest.raises(ValueError) as got:
            chaos.subset_entropies(broken)
        assert str(got.value) == str(want.value)
        # greedy's first placement reads one-member groups from the table;
        # its second diagonalises the first groups of two or more members,
        # and raises: as the plain batch of those mixtures, one per run and
        # group, repeats included, does
        seeds = chaos.greedy_draws(cfg.seed, 8)
        rows = labels(chaos.greedy_groupings(means, table, seeds))
        plain = [(broken[mask] + broken[1 << idx]) / 2 for row_seeds, row in zip(seeds, rows)
                 for placements in [memo_keys_by_placement(row_seeds, row)] if len(placements) > 1
                 for mask, idx in placements[1]]
        assert len({m.tobytes() for m in plain}) < len(plain)
        with pytest.raises(ValueError) as want:
            qstate.von_neumann_entropy_bits(np.array(plain))
        with pytest.raises(ValueError) as got:
            chaos.greedy_groupings(broken, table, seeds)
        assert str(got.value) == str(want.value)

    def test_matrices_are_told_apart_by_every_byte(self):
        # rho and its complex conjugate share their real part, and so does
        # their mean Re rho, a mixed state: only imaginary bytes tell it apart
        vector = np.random.default_rng(3).normal(size=(8, 2)) @ [1, 1j]
        rho = np.outer(vector, vector.conj()) / np.vdot(vector, vector).real
        rhos = [rho, rho, rho.conj()]
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        assert hexes(table) == hexes(oracles.plain_subset_entropies(means))
        assert table[0b101] > 0.1 > table[0b001]
        draws = [(0,), (2,), (0, 2), (2, 1), (1, 0)]
        assert labels(chaos.greedy_groupings(means, table, oracles.seed_masks(draws))) == (
            oracles.plain_greedy_groupings(means, table, draws))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_repeated_members_equal_the_plain_batch(self, data):
        rhos = data.draw(repeated_member_ensembles())
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        expected = oracles.plain_subset_entropies(means)
        assert hexes(table) == hexes(expected)
        for _ in range(2):  # two draw sets per ensemble
            draws = data.draw(draw_sets(len(rhos)))
            assert labels(chaos.greedy_groupings(means, table, oracles.seed_masks(draws))) == (
                oracles.plain_greedy_groupings(means, expected, draws))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_equal_the_mask_keyed_greedy(self, data, fig2_chaotic_ensemble, fig2_regular_ensemble):
        # members repeated at random, or either fig5 map's histories
        rhos = data.draw(st.one_of(repeated_member_ensembles(),
                                   st.sampled_from([fig2_chaotic_ensemble, fig2_regular_ensemble])))
        means = chaos.subset_means(rhos)
        table = chaos.subset_entropies(means)
        for _ in range(2):  # two draw sets per ensemble
            seeds = oracles.seed_masks(data.draw(draw_sets(len(rhos))))
            assert np.array_equal(chaos.greedy_groupings(means, table, seeds), mask_keyed_greedy(means, table, seeds))


def flip(mask: int) -> int:
    """``mask`` with members 2i and 2i + 1 swapped."""
    return sum(1 << (i ^ 1) for i in range(mask.bit_length()) if mask >> i & 1)


def experiment_table(cfg, n_steps, monkeypatch) -> np.ndarray:
    """The subset entropy table ``chaos.hypersensitivity_experiment`` scans."""
    tables, scan = [], chaos.partition_scan
    monkeypatch.setattr(chaos, "partition_scan", lambda entropies: tables.append(entropies) or scan(entropies))
    chaos.hypersensitivity_experiment(cfg, n_steps)
    monkeypatch.setattr(chaos, "partition_scan", scan)
    return tables[0]


class TestFlipClasses:
    # a history ensemble's members 2i and 2i + 1 are rho and Z rho Z, so a
    # subset and its flip have unitarily conjugate means: the experiment
    # diagonalises one mean per flip orbit of a chaotic table

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])  # 2**steps histories, and the scan's limit
    def test_orbits_are_closed_under_the_flip(self, n):
        ids, first = chaos._flip_classes(n)
        assert ids[0] == 0 and first[0] == 0
        orbits: dict = {}
        for mask in range(2**n):
            orbits.setdefault(int(ids[mask]), set()).add(mask)
        assert sorted(orbits) == list(range(len(first)))
        for orbit_id, orbit in orbits.items():
            assert all({mask, flip(mask)} == orbit for mask in orbit), orbit
            assert first[orbit_id] == min(orbit)
        assert not ids.flags.writeable and not first.flags.writeable

    def test_eight_members_give_135_orbits(self):
        ids, first = chaos._flip_classes(8)
        fixed = [mask for mask in range(1, 256) if flip(mask) == mask]
        assert len(fixed) == 15 and len(first) - 1 == 135 == len(fixed) + (255 - len(fixed)) // 2
        assert np.all(np.diff(first) > 0)

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("hamiltonian", ["noxy", "full", "simplified"])
    @pytest.mark.parametrize("preset", sorted(chaos.PRESETS))
    def test_chaotic_table_equals_subset_entropies(self, preset, hamiltonian, convention, n_steps, monkeypatch):
        # a flipped mean is summed in another member order, so its entropy
        # drifts at round-off from its own: at most 2.2e-15 bits over these
        # 72 tables; the lowest mask of each orbit keeps its bits
        cfg = ExperimentConfig.preset(preset, map_variant="chaotic", hamiltonian=hamiltonian, convention=convention)
        table = experiment_table(cfg, n_steps, monkeypatch)
        expected = chaos.subset_entropies(chaos.subset_means(chaos.history_ensemble(cfg, n_steps)))
        first = chaos._flip_classes(2**n_steps)[1]
        assert hexes(table[first]) == hexes(expected[first])
        assert np.array_equal(table, table[[flip(mask) for mask in range(len(table))]])
        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    @pytest.mark.parametrize("convention", nmr.CONVENTIONS)
    @pytest.mark.parametrize("hamiltonian", ["noxy", "full", "simplified"])
    def test_regular_table_keeps_its_bits(self, hamiltonian, convention, n_steps, monkeypatch):
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", hamiltonian=hamiltonian, convention=convention)
        table = experiment_table(cfg, n_steps, monkeypatch)
        means = chaos.subset_means(chaos.history_ensemble(cfg, n_steps))
        assert hexes(table) == hexes(oracles.plain_subset_entropies(means))

    @pytest.mark.parametrize("variant, diagonalised", [("chaotic", 135), ("regular", 24)])
    def test_job_diagonalises_one_table_mean_per_class(self, variant, diagonalised, monkeypatch):
        batches, inside, table = [], [], chaos._subset_entropies
        entropies = qstate.von_neumann_entropy_bits

        def counting(rhos):
            if inside:
                batches.append(len(rhos))
            return entropies(rhos)

        def flagged(*args):
            inside.append(True)
            try:
                return table(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(qstate, "von_neumann_entropy_bits", counting)
        monkeypatch.setattr(chaos, "_subset_entropies", flagged)
        chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5", map_variant=variant), 3)
        assert batches == [diagonalised]


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
        for pos, string in enumerate(chaos.set_partitions(8).tolist()):
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
        with pytest.raises(ValueError, match=re.escape("6 steps give 2**6 histories")):
            chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig2"))  # 6 steps

    def test_negative_seed_rejected_before_work(self, monkeypatch):
        def forbidden(cfg, n_steps):
            raise AssertionError("history ensemble built for a rejected seed")

        monkeypatch.setattr(chaos, "history_ensemble", forbidden)
        with pytest.raises(ValueError, match="seed=-1"):
            chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5", seed=-1))

    def test_one_greedy_run_per_draw_in_draw_order(self, monkeypatch):
        # one group, or one per state, gives one grouping whatever the draw,
        # so only 2 <= k <= n - 1 groups are drawn and run: every draw of
        # each k, repeats included, in numpy's draw order, k ascending, all
        # as the rows of one lockstep call, with no numpy generator built
        cfg = ExperimentConfig.preset("fig5", map_variant="regular", seed=5)
        n = 8
        draws = numpy_draws(cfg.seed, n)
        seen, calls = [], []
        original = chaos._greedy_groupings

        def counting(means, entropies, seeds, ids, first):
            calls.append(len(seeds))
            seen.append(seeds)
            return original(means, entropies, seeds, ids, first)

        def forbidden(*args, **kwargs):
            raise AssertionError("the experiment built a numpy generator")

        monkeypatch.setattr(chaos, "_greedy_groupings", counting)
        for name in ("default_rng", "SeedSequence", "PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, forbidden)
        chaos.hypersensitivity_experiment(cfg)
        assert len(set(draws)) < len(draws) == (n - 2) * chaos.GREEDY_RESTARTS
        assert calls == [len(draws)]
        assert np.array_equal(seen[0], oracles.seed_masks(draws, n - 1))

    @pytest.mark.parametrize("hamiltonian", ["noxy", "full"])
    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_repeated_and_permuted_seed_rows_change_nothing(self, variant, hamiltonian, monkeypatch):
        # the experiment runs every draw, repeats included: a repeated row
        # reads the same memo keys, which each placement's np.unique merges,
        # and no row order decides a batch, since the keys are sorted
        cfg = ExperimentConfig.preset("fig5", map_variant=variant, hamiltonian=hamiltonian)
        means = chaos.subset_means(chaos.history_ensemble(cfg, 3))
        table = chaos.subset_entropies(means)
        seeds = chaos.greedy_draws(cfg.seed, 8)
        first = np.sort(np.unique(seeds, axis=0, return_index=True)[1])  # each distinct row where first drawn
        rng = np.random.default_rng(11)
        order = np.concatenate([rng.permutation(len(seeds)), rng.integers(0, len(seeds), 100)])
        assert len(first) < len(seeds)
        batches = record_batches(monkeypatch)

        def run(picked):
            batches.clear()
            return chaos.greedy_groupings(means, table, seeds[picked]), list(batches)

        rows, fills = run(slice(None))
        permuted, permuted_fills = run(order)
        distinct, distinct_fills = run(first)
        # the label rows follow their seed rows bit for bit, and each
        # placement's memo fill diagonalises the same mixtures
        assert np.array_equal(permuted, rows[order]) and np.array_equal(distinct, rows[first])
        assert fills and permuted_fills == fills and distinct_fills == fills
        # and the job's greedy points are those of the distinct rows alone
        expected = hex_points(chaos.hypersensitivity_experiment(cfg).greedy_points)
        draws = chaos.greedy_draws
        monkeypatch.setattr(chaos, "greedy_draws", lambda seed, n: draws(seed, n)[first])
        assert hex_points(chaos.hypersensitivity_experiment(cfg).greedy_points) == expected

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

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_greedy_diagonalises_once_per_memo_key(self, variant, monkeypatch):
        calls, runs, diagonalised, inside, greedy_mixtures = [], [], [], [], Counter()
        greedy, eigvalsh = chaos._greedy_groupings, np.linalg.eigvalsh

        def counting_eigvalsh(a):
            if inside:
                diagonalised.append(math.prod(np.shape(a)[:-2]))
            return eigvalsh(a)

        def counting_greedy(means, entropies, seeds, ids, first):
            calls.append(means)
            inside.append(True)
            before = len(mixtures)
            try:
                rows = greedy(means, entropies, seeds, ids, first)
            finally:
                inside.pop()
            greedy_mixtures.update(m.tobytes() for m, _ in mixtures[before:])
            runs.extend(zip(seeds, labels(rows)))
            return rows

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(chaos, "_greedy_groupings", counting_greedy)
        mixtures = record_mixtures(monkeypatch)
        chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5", map_variant=variant))
        # one call for the whole job; it diagonalises exactly the mixtures
        # of the memo slots of the multi-member entries the runs read, each
        # once, and no one-member entry at all: on the chaotic map each entry
        # is its own slot, while the regular map's two states share them
        assert len(calls) == 1
        keys = set().union(*(memo_keys(seeds, row) for seeds, row in runs))
        assert all(mask.bit_count() > 1 for mask, _ in keys)
        slots = memo_slots(calls[0], keys)
        assert greedy_mixtures == memo_mixtures(calls[0], slots.values())
        assert sum(diagonalised) == len(slots)
        assert (len(slots) == len(keys)) == (variant == "chaotic")
        # at most one batched call for the mixtures of each placement: the
        # n - 2 placements of the two-group runs, where one call per k made
        # up to 21 and one call per draw about 210
        n = 8
        assert len(diagonalised) <= n - 2 == 6

    @pytest.mark.parametrize("variant", chaos.MAP_VARIANTS)
    def test_distinct_means_found_once_per_job(self, variant, monkeypatch):
        # the subset table and greedy's memo keys read one dedupe of the table
        calls, distinct = [], chaos._distinct_means
        monkeypatch.setattr(chaos, "_distinct_means", lambda means: calls.append(len(means)) or distinct(means))
        chaos.hypersensitivity_experiment(ExperimentConfig.preset("fig5", map_variant=variant))
        assert calls == [256]

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
