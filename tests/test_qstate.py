import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmrbaker import lindblad, nmr, qstate
from nmrbaker.qstate import ID2, PAULI_X, PAULI_Y, PAULI_Z

SPINS = ("H", "C1", "C2")


class TestEmbed:
    def test_single_spin_placement(self):
        expected = np.kron(ID2, np.kron(ID2, PAULI_Z))
        np.testing.assert_allclose(qstate.embed(PAULI_Z, "C2", SPINS), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_position_is_the_kron_placement(self, n):
        labels = [f"q{i}" for i in range(n)]
        op = np.array([[1, 2j], [3, 4]], dtype=complex)
        for k, label in enumerate(labels):
            expected = functools.reduce(np.kron, [ID2] * k + [op] + [ID2] * (n - k - 1))
            assert np.array_equal(qstate.embed(op, label, labels), expected)

    def test_disjoint_supports_commute(self):
        a = qstate.embed(PAULI_X, "H", SPINS)
        b = qstate.embed(PAULI_Y, "C2", SPINS)
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-14)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            qstate.embed(PAULI_Z, "N", SPINS)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qstate.embed(np.eye(4), "H", SPINS)


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        np.testing.assert_allclose(
            qstate.hermitian_propagator(np.zeros((4, 4)))(2.7), np.eye(4), atol=1e-14
        )

    def test_diagonal_case(self):
        u = qstate.hermitian_propagator(PAULI_Z)(np.pi / 2)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14
        )

    def test_commuting_diagonal_factors(self):
        # exp(-i t (c1 A + c2 B + c3 C)) for commuting diagonal terms equals
        # the elementwise product of the closed-form diagonal exponentials.
        j1, j2, delta = 203.0, 101.5, -905.0
        t = np.pi / (2 * j1)
        zz_hc1 = np.diag(np.kron(np.kron(PAULI_Z, PAULI_Z), ID2)).real
        zz_c1c2 = np.diag(np.kron(ID2, np.kron(PAULI_Z, PAULI_Z))).real
        z_c2 = np.diag(np.kron(ID2, np.kron(ID2, PAULI_Z))).real
        h = np.diag(j1 / 4 * zz_hc1 + j2 / 4 * zz_c1c2 + delta / 2 * z_c2)
        expected = np.diag(
            np.exp(-1j * t * j1 / 4 * zz_hc1)
            * np.exp(-1j * t * j2 / 4 * zz_c1c2)
            * np.exp(-1j * t * delta / 2 * z_c2)
        )
        np.testing.assert_allclose(qstate.hermitian_propagator(h)(t), expected, atol=1e-12)

    def test_result_is_unitary(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        assert oracles.is_unitary(qstate.hermitian_propagator(h)(0.37), tol=1e-10)

    def test_time_additivity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        u = qstate.hermitian_propagator(h)(0.5) @ qstate.hermitian_propagator(h)(0.3)
        np.testing.assert_allclose(u, qstate.hermitian_propagator(h)(0.8), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qstate.hermitian_propagator(np.array([[0, 1], [0, 0]]))(1.0)


class TestDftMatrix:
    def test_dim_two_is_hadamard(self):
        np.testing.assert_allclose(
            qstate.dft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_columns_orthonormal(self):
        f = qstate.dft_matrix(8)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(8), atol=1e-12)

    def test_dim_four_column_one(self):
        f = qstate.dft_matrix(4)
        np.testing.assert_allclose(f[:, 1], np.array([1, 1j, -1, -1j]) / 2, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_fourth_power_is_identity(self, dim):
        f = qstate.dft_matrix(dim)
        np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(dim), atol=1e-9)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            qstate.dft_matrix(0)


class TestEntropy:
    def test_pure_state_zero(self):
        psi = oracles.normalize(np.arange(1, 9, dtype=complex))
        rho = np.outer(psi, psi.conj())
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_three_bits(self):
        assert qstate.von_neumann_entropy_bits(np.eye(8) / 8) == pytest.approx(3.0)

    def test_equal_two_level_mixture_one_bit(self):
        rho = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(1.0)

    def test_clamp_window(self):
        rho = np.diag([1.0 + 5e-10, -5e-10])
        assert qstate.von_neumann_entropy_bits(rho) == pytest.approx(0.0, abs=1e-7)

    def test_rejects_corrupted_state(self):
        with pytest.raises(ValueError):
            qstate.von_neumann_entropy_bits(np.diag([1.1, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # OpenBLAS eigvalsh returns finite eigenvalues for diag(nan, 0, ..., 0)
        rho = np.diag([bad] + [0.0] * 7)
        with pytest.raises(ValueError, match="non-finite entries"):
            qstate.von_neumann_entropy_bits(rho)
        with pytest.raises(ValueError, match="non-finite entries"):
            qstate.von_neumann_entropy_bits(np.array([np.eye(8) / 8, rho]))

    def test_rejects_non_finite_spectrum(self, monkeypatch):
        # a NaN eigenvalue fails "below -EIG_CLAMP" as well as "above" it
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(np.shape(a)[:-1], np.nan))
        with pytest.raises(ValueError, match="or NaN"):
            qstate.von_neumann_entropy_bits(np.eye(8) / 8)
        with pytest.raises(ValueError, match="or NaN"):
            qstate.von_neumann_entropy_bits(np.array([np.eye(8) / 8] * 2))

    def test_stack_equals_each_matrix_alone(self):
        # full rank, rank deficient, pure, and with an eigenvalue in the
        # clamp window: a nonpositive eigenvalue counts as 0 either way
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        low_rank = a @ a.conj().T
        stack = np.array([np.eye(8) / 8, low_rank / np.trace(low_rank).real,
                          np.diag([1.0] + [0.0] * 7), np.diag([1.0 + 5e-10, -5e-10] + [0.0] * 6)])
        entropies = qstate.von_neumann_entropy_bits(stack)
        assert entropies.shape == (4,)
        assert [x.hex() for x in entropies.tolist()] == [
            qstate.von_neumann_entropy_bits(rho).hex() for rho in stack]

    def test_one_matrix_gives_a_numpy_float(self):
        assert type(qstate.von_neumann_entropy_bits(np.eye(8) / 8)) is np.float64

    def test_empty_stack_gives_empty_array(self):
        entropies = qstate.von_neumann_entropy_bits(np.zeros((0, 8, 8)))
        assert entropies.shape == (0,) and entropies.dtype == float

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrices_rejected(self, shape):
        message = re.escape(f"square matrices of size 1 or more, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            qstate.von_neumann_entropy_bits(np.zeros(shape))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.random(8)
        rho = np.diag(w / w.sum()).astype(complex)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        s0 = qstate.von_neumann_entropy_bits(rho)
        s1 = qstate.von_neumann_entropy_bits(q @ rho @ q.conj().T)
        assert s1 == pytest.approx(s0, abs=1e-9)


class TestPhaseInvariantDistance:
    def test_global_phase_is_ignored(self):
        u = qstate.dft_matrix(8)
        assert qstate.phase_invariant_distance(u, np.exp(1.3j) * u) < 1e-12

    def test_traceless_difference(self):
        assert qstate.phase_invariant_distance(ID2, PAULI_Z) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qstate.phase_invariant_distance(np.eye(2), np.eye(4))


class TestDensityChecks:
    def test_valid_density_matrix_passes(self):
        assert qstate.density_matrix_defects(np.eye(8) / 8)[0] == []

    def test_trace_violation_detected(self):
        defects = qstate.density_matrix_defects(np.eye(8) / 4)[0]
        assert any("trace" in d for d in defects)

    def test_hermiticity_violation_detected(self):
        rho = np.eye(2) / 2 + np.array([[0, 1e-5], [0, 0]])
        assert any("hermiticity" in d for d in qstate.density_matrix_defects(rho)[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_detected(self, bad):
        rho = np.eye(8, dtype=complex) / 8
        rho[2, 5] = bad
        assert qstate.density_matrix_defects(rho)[0] == ["non-finite entries (1 of 64)"]


def random_densities(rng, shape):
    """A random density matrix of random rank 1..8 at each index of ``shape``."""
    out = np.empty((*shape, 8, 8), dtype=complex)
    for idx in np.ndindex(*shape):
        size = (8, rng.integers(1, 9))
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        rho = a @ a.conj().T
        out[idx] = rho / np.trace(rho)
    return out


def with_entry(rho, idx, value):
    rho = rho.copy()
    rho[idx] = value
    return rho


# one defect of each kind, and its messages word for word
EYE = np.eye(8, dtype=complex)
BAD_STATES = {
    "non-finite": (with_entry(EYE / 8, (3, 3), np.inf), ["non-finite entries (1 of 64)"]),
    "hermiticity": (with_entry(EYE / 8, (0, 1), 1e-6), ["hermiticity violated by 1.000e-06"]),
    "trace": (EYE / 8 * 1.01, ["trace 1.01+0j deviates from 1 by 1.000e-02"]),
    "negative eigenvalue": (np.diag([1 + 1e-6, -1e-6, 0, 0, 0, 0, 0, 0]).astype(complex),
                            ["negative eigenvalue -1.000e-06"]),
    "hermiticity and trace": (with_entry(EYE / 4, (0, 1), 1e-6),
                              ["hermiticity violated by 1.000e-06",
                               "trace 2+0j deviates from 1 by 1.000e+00"]),
    # the Hermitian part's spectrum holds -1e-6, but a state beyond the
    # hermiticity tolerance gets no eigenvalue verdict
    "hermiticity over a negative eigenvalue": (
        with_entry(np.diag([1 + 1e-6, -1e-6, 0, 0, 0, 0, 0, 0]).astype(complex), (0, 1), 1e-6),
        ["hermiticity violated by 1.000e-06"]),
}


def run_checks(states):
    """``lindblad.run_sequence`` of an empty program: it checks the input
    states (``ValueError``), applies nothing and checks them again."""
    return lindblad.run_sequence(states, EMPTY_PROGRAM, CLOSED_ENGINE)


EMPTY_PROGRAM = nmr.PulseSequence("empty", ())
CLOSED_ENGINE = lindblad.EvolutionEngine(nmr.HamiltonianModel(), lindblad.NoiseModel())


class TestStackedDensityChecks:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1,), (3,), (7,), (2, 3)]))
    def test_valid_stack_passes_as_each_state_does(self, seed, shape):
        states = random_densities(np.random.default_rng(seed), shape)
        assert all(oracles.single_state_defects(rho) == [] for rho in states.reshape(-1, 8, 8))
        assert qstate.density_matrix_defects(states)[0] == []
        run_checks(states)

    @pytest.mark.parametrize("position", [0, 3, 5])
    @pytest.mark.parametrize("kind", sorted(BAD_STATES))
    def test_one_bad_state_anywhere_gives_its_own_messages(self, kind, position):
        bad, messages = BAD_STATES[kind]
        assert oracles.single_state_defects(bad) == qstate.density_matrix_defects(bad)[0] == messages
        states = random_densities(np.random.default_rng(position), (6,))
        states[position] = bad
        for stack in (states, states.reshape(2, 3, 8, 8)):
            assert qstate.density_matrix_defects(stack)[0] == messages
            with pytest.raises(ValueError, match=re.escape("invalid density matrix: " + "; ".join(messages))):
                run_checks(stack)

    def test_first_bad_state_is_the_one_reported(self):
        states = random_densities(np.random.default_rng(1), (4,))
        states[1], states[2] = BAD_STATES["negative eigenvalue"][0], BAD_STATES["non-finite"][0]
        assert qstate.density_matrix_defects(states)[0] == BAD_STATES["negative eigenvalue"][1]
        assert qstate.density_matrix_defects(states[::-1])[0] == BAD_STATES["non-finite"][1]

    def test_hermiticity_failure_gets_no_eigenvalue_verdict(self):
        bad, messages = BAD_STATES["hermiticity over a negative eigenvalue"]
        assert np.linalg.eigvalsh((bad + bad.conj().T) / 2)[0] < -qstate.EIG_CLAMP
        assert qstate.density_matrix_defects(bad)[0] == messages

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_lower_triangle_spectrum_within_weyl_bound(self, seed):
        # within the hermiticity tolerance, the spectrum eigvalsh reads from
        # the lower triangle is within 8 * tol / 2 of the Hermitian part's
        rng = np.random.default_rng(seed)
        rho = random_densities(rng, (1,))[0]
        noise = rng.uniform(-1, 1, (8, 8)) + 1j * rng.uniform(-1, 1, (8, 8))
        rho = rho + noise * (qstate.HERMITICITY_TOL / 2 / np.abs(noise).max())
        assert np.abs(rho - rho.conj().T).max() <= qstate.HERMITICITY_TOL
        shift = np.linalg.eigvalsh(rho) - np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        assert np.abs(shift).max() <= 4 * qstate.HERMITICITY_TOL < qstate.EIG_CLAMP

    def test_spectra_are_the_states_own(self):
        states = random_densities(np.random.default_rng(2), (2, 3))
        defects, w = qstate.density_matrix_defects(states)
        assert defects == [] and np.array_equal(w, np.linalg.eigvalsh(states.reshape(-1, 8, 8)))
        states[1, 0] = BAD_STATES["non-finite"][0]
        defects, w = qstate.density_matrix_defects(states)
        assert defects == BAD_STATES["non-finite"][1] and np.array_equal(w[3], np.zeros(8))

    def test_empty_stack_has_no_defects(self):
        assert qstate.density_matrix_defects(np.zeros((0, 8, 8)))[0] == []

    @pytest.mark.parametrize("shape", [(), (8,), (4, 8), (2, 8, 4)])
    def test_non_square_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            qstate.density_matrix_defects(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrices_rejected(self, shape):
        message = re.escape(f"square matrices of size 1 or more, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            qstate.density_matrix_defects(np.zeros(shape))
